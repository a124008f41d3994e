package phy

// TransportBlockSizeBits computes the transport-block size in bits for
// an allocation of nPRB resource blocks at the given MCS, following the
// structure of the TS 38.214 §5.1.3.2 procedure: available resource
// elements × spectral efficiency, quantized and floored to a byte
// boundary. Single layer, no spatial multiplexing (matching the
// paper's single-antenna telemetry view).
func TransportBlockSizeBits(m MCS, nPRB int) int {
	if nPRB <= 0 {
		return 0
	}
	nRE := float64(REPerPRBData * nPRB)
	nInfo := nRE * m.SpectralEfficiency()
	if nInfo < 24 {
		return 0
	}
	// Quantize as in 38.214: round down to a multiple of 8 after
	// subtracting the 24-bit CRC budget (approximation of the
	// LDPC-graph quantization steps, accurate to within a percent).
	// The spec's TBS table bottoms out at 24 bits: any schedulable
	// allocation carries at least that much.
	bits := int(nInfo) - 24
	bits -= bits % 8
	if bits < 24 {
		bits = 24
	}
	return bits
}

// TransportBlockSizeBytes is TransportBlockSizeBits in bytes.
func TransportBlockSizeBytes(m MCS, nPRB int) int {
	return TransportBlockSizeBits(m, nPRB) / 8
}

// PRBsForBytes returns the minimum PRB count whose TBS at MCS m covers
// `bytes` of payload, capped at maxPRB. The scheduler uses this to size
// grants to buffer status reports.
func PRBsForBytes(m MCS, bytes, maxPRB int) int {
	if bytes <= 0 {
		return 0
	}
	if maxPRB <= 0 {
		return 0
	}
	// TBS is linear in nPRB to within quantization, so start from the
	// analytic estimate and fix up.
	perPRB := TransportBlockSizeBytes(m, 1)
	if perPRB == 0 {
		// MCS 0 with one PRB can still carry a few bytes once more PRBs
		// accumulate; fall back to linear search.
		for n := 1; n <= maxPRB; n++ {
			if TransportBlockSizeBytes(m, n) >= bytes {
				return n
			}
		}
		return maxPRB
	}
	n := bytes / perPRB
	if n < 1 {
		n = 1
	}
	for n <= maxPRB && TransportBlockSizeBytes(m, n) < bytes {
		n++
	}
	if n > maxPRB {
		return maxPRB
	}
	// The quantization in TransportBlockSizeBits means the analytic
	// estimate is not a lower bound; shrink to the true minimum.
	for n > 1 && TransportBlockSizeBytes(m, n-1) >= bytes {
		n--
	}
	return n
}
