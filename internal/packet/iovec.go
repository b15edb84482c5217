package packet

// IOVec names the gather list EncodeVec returns: header segments from the
// encoder's scratch block interleaved with payload slices held by
// reference. Flatten joins it into one contiguous buffer.
type IOVec [][]byte

// Flatten copies all segments into dst (grown as needed) and returns it.
func (v IOVec) Flatten(dst []byte) []byte {
	dst = dst[:0]
	for _, s := range v {
		dst = append(dst, s...)
	}
	return dst
}
