//go:build amd64 || arm64

package main

// goid returns the address of the calling goroutine's runtime descriptor
// (goid_amd64.s, goid_arm64.s). It is unique among live goroutines, which
// is all the tracer needs to keep one span stack per goroutine.
func goid() uintptr
