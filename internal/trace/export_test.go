package trace

// What the external tests (package trace_test, which may import the
// scenario catalog where this package's own tests cannot) share with
// the internal ones.
var (
	GoldenSet        = goldenSet
	FastDecodeLine   = fastDecodeLine
	OracleDecodeLine = oracleDecodeLine
	JSONLFuzzSeeds   = jsonlFuzzSeeds
	BenchRecords     = benchRecords
	DrainJSONLRing   = drainJSONLRing
)

// BlockRecords materialises a block's records into storage of their
// own, in stream order.
func BlockRecords(b *Block) []Record {
	g := &Block{Stats: append([]WebRTCStatsRecord(nil), b.Stats...)}
	return g.records(b)
}
