package balancer

import (
	"slices"
	"sync"
	"unsafe"
)

// keptEntries and keptBytes bound what fan-out reads keep: query-mix's
// working set, two nodes × ≈ 55 distinct reads plus the merged answers,
// fits. What is over its share, keptBytes/keptEntries, is not kept.
const (
	keptEntries = 256
	keptBytes   = 64 << 20
)

// kept holds each backend's last tagged 200 to a URL, scanned, and each
// merged answer built from tagged parts only, under the request's URI
// with the parts it was merged from. Nothing kept is written again, so
// concurrent reads share it. An entry that would pass either bound
// empties the cache first, as the RCA store's answer memo does; a
// replaced entry's bytes stay counted until then.
type kept struct {
	mu     sync.Mutex
	parts  map[string]*part
	merged map[string]mergedAnswer
	bytes  int
}

type mergedAnswer struct {
	from []*part
	body []byte
}

func (k *kept) part(url string) *part {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.parts[url]
}

// answer returns the answer kept under uri if it was merged from
// exactly answers, in that order.
func (k *kept) answer(uri string, answers []*part) []byte {
	k.mu.Lock()
	defer k.mu.Unlock()
	if m, ok := k.merged[uri]; ok && slices.Equal(m.from, answers) {
		return m.body
	}
	return nil
}

func (k *kept) keepPart(url string, p *part) {
	k.add(cap(p.body)+cap(p.rows)*int(unsafe.Sizeof(row{})), func() { k.parts[url] = p })
}

func (k *kept) keepAnswer(uri string, answers []*part, body []byte) {
	if !slices.ContainsFunc(answers, func(p *part) bool { return p.etag == "" }) {
		m := mergedAnswer{slices.Clone(answers), slices.Clone(body)}
		k.add(len(body), func() { k.merged[uri] = m })
	}
}

func (k *kept) add(size int, put func()) {
	if size > keptBytes/keptEntries {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.parts == nil || len(k.parts)+len(k.merged) >= keptEntries || k.bytes+size > keptBytes {
		k.parts, k.merged, k.bytes = map[string]*part{}, map[string]mergedAnswer{}, 0
	}
	put()
	k.bytes += size
}
