package minimpi

import (
	"bytes"
	"fmt"
	"testing"
)

func TestScatter(t *testing.T) {
	for _, n := range []int{2, 4, 5} {
		j := newJob(t, n)
		root := n / 2
		chunks := make([][]byte, n)
		for i := range chunks {
			chunks[i] = []byte(fmt.Sprintf("chunk-for-%d", i))
		}
		got := make([][]byte, n)
		for r := 0; r < n; r++ {
			r := r
			var in [][]byte
			if r == root {
				in = chunks
			}
			j.worlds[r].Scatter(root, in, func(c []byte) { got[r] = c })
		}
		j.cl.Eng.Run()
		for r := 0; r < n; r++ {
			want := fmt.Sprintf("chunk-for-%d", r)
			if string(got[r]) != want {
				t.Fatalf("n=%d rank %d got %q, want %q", n, r, got[r], want)
			}
		}
	}
}

func TestScatterValidation(t *testing.T) {
	j := newJob(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong chunk count accepted")
		}
	}()
	j.worlds[0].Scatter(0, [][]byte{{1}}, func([]byte) {})
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6} {
		j := newJob(t, n)
		results := make([][][]byte, n)
		for r := 0; r < n; r++ {
			r := r
			send := make([][]byte, n)
			for to := 0; to < n; to++ {
				send[to] = []byte(fmt.Sprintf("%d->%d", r, to))
			}
			j.worlds[r].Alltoall(send, func(recv [][]byte) { results[r] = recv })
		}
		j.cl.Eng.Run()
		for r := 0; r < n; r++ {
			if results[r] == nil {
				t.Fatalf("n=%d rank %d never completed", n, r)
			}
			for from := 0; from < n; from++ {
				want := fmt.Sprintf("%d->%d", from, r)
				if string(results[r][from]) != want {
					t.Fatalf("n=%d rank %d from %d: got %q want %q",
						n, r, from, results[r][from], want)
				}
			}
		}
	}
}

func TestAlltoallAggregatesAcrossFlows(t *testing.T) {
	// Several concurrent exchanges of small chunks keep every NIC busy, so
	// later sends accumulate as backlog and the optimizer finds cross-flow
	// aggregation material (tags keep the exchanges separate).
	const n, concurrent = 6, 4
	j := newJob(t, n)
	doneCount := 0
	for round := 0; round < concurrent; round++ {
		for r := 0; r < n; r++ {
			send := make([][]byte, n)
			for to := range send {
				send[to] = bytes.Repeat([]byte{byte(r)}, 64)
			}
			j.worlds[r].Alltoall(send, func([][]byte) { doneCount++ })
		}
	}
	j.cl.Eng.Run()
	if doneCount != n*concurrent {
		t.Fatalf("completed %d of %d", doneCount, n*concurrent)
	}
	var aggregates uint64
	for _, eng := range j.engines {
		aggregates += eng.Metrics().Aggregates
	}
	if aggregates == 0 {
		t.Fatal("alltoall produced no aggregation")
	}
}

func TestRepeatedAlltoall(t *testing.T) {
	const n, rounds = 3, 4
	j := newJob(t, n)
	counts := make([]int, n)
	var again func(r int)
	again = func(r int) {
		send := make([][]byte, n)
		for to := range send {
			send[to] = []byte{byte(counts[r])}
		}
		j.worlds[r].Alltoall(send, func([][]byte) {
			counts[r]++
			if counts[r] < rounds {
				again(r)
			}
		})
	}
	for r := 0; r < n; r++ {
		again(r)
	}
	j.cl.Eng.Run()
	for r, c := range counts {
		if c != rounds {
			t.Fatalf("rank %d completed %d rounds", r, c)
		}
	}
}
