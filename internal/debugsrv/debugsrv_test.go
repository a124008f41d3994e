package debugsrv

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMuxServesPprof: the index lists the profiles, and the named
// handlers answer under their paths.
func TestMuxServesPprof(t *testing.T) {
	ts := httptest.NewServer(mux())
	defer ts.Close()
	for path, says := range map[string]string{
		"/debug/pprof/":                  "goroutine",
		"/debug/pprof/goroutine?debug=1": "goroutine profile",
		"/debug/pprof/cmdline":           "debugsrv",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), says) {
			t.Errorf("GET %s: %d, body lacks %q:\n%.200s", path, resp.StatusCode, says, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /metrics: %d, want 404: the debug listener serves pprof only", resp.StatusCode)
	}
}
