//go:build !amd64 && !arm64

package main

import (
	"bytes"
	"runtime"
	"strconv"
)

// goid returns the calling goroutine's id, parsed from its stack header.
// Far slower than the assembly path on amd64 and arm64; traced runs on
// other architectures report a correspondingly larger tracing overhead.
func goid() uintptr {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil || id == 0 {
		panic("perfbench: unreadable goroutine header " + string(b))
	}
	return uintptr(id)
}
