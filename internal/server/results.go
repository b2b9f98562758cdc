// Result delivery: constant-memory streaming of full vertex-value arrays,
// offset/limit pagination, and the bounded-heap top-k selection.
//
// The old ?full=1 path materialised a []jsonFloat copy of the whole result
// and indent-encoded it through encoding/json — three full-size allocations
// for a payload that can be hundreds of megabytes. Here the values stream
// through a reused per-value scratch buffer and a fixed bufio window, so
// server memory per request is O(page), independent of graph size.
package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"github.com/graphsd/graphsd/internal/jobs"
)

// streamChunkBytes is the bufio window for streamed results: large enough
// to amortise chunked-transfer framing, small enough to stay O(1).
const streamChunkBytes = 32 << 10

// appendJSONFloat appends v's JSON encoding to b: a plain number for
// finite values, the jsonFloat string forms ("Infinity", "-Infinity",
// "NaN") for the non-finite ones a traversal run produces.
func appendJSONFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, `"Infinity"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Infinity"`...)
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// resultPage is the window of a full-result response selected by
// ?offset/&limit. next < 0 means the page reaches the end of the values.
type resultPage struct {
	offset int
	limit  int // -1: through the end
	total  int
}

func (p resultPage) bounds() (lo, hi, next int) {
	lo = p.offset
	if lo > p.total {
		lo = p.total // offset past the end: an empty page, not an error
	}
	hi = p.total
	if p.limit >= 0 && p.limit < hi-lo { // not lo+limit, which overflows on a huge limit
		hi = lo + p.limit
	}
	next = -1
	if hi < p.total {
		next = hi
	}
	return lo, hi, next
}

// streamFullResult writes a full-result payload as one chunked JSON
// object: the job status fields, the pagination envelope (total, offset,
// and next_offset when another page remains), then "full" as an array
// streamed value-by-value. A mid-stream client disconnect surfaces as a
// sticky bufio error and just stops the stream — there is nothing to
// recover, the response is already committed.
func streamFullResult(w http.ResponseWriter, st jobs.Status, vals []float64, page resultPage) {
	head, err := json.Marshal(st)
	if err != nil || len(head) < 2 {
		writeError(w, http.StatusInternalServerError, "encoding status: %v", err)
		return
	}
	lo, hi, next := page.bounds()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, streamChunkBytes)
	bw.Write(head[:len(head)-1]) // reopen the status object: strip '}'
	fmt.Fprintf(bw, ",\"total\":%d,\"offset\":%d", page.total, lo)
	if next >= 0 {
		fmt.Fprintf(bw, ",\"next_offset\":%d", next)
	}
	bw.WriteString(",\"full\":[")
	scratch := make([]byte, 0, 32)
	for i := lo; i < hi; i++ {
		if i > lo {
			bw.WriteByte(',')
		}
		scratch = appendJSONFloat(scratch[:0], vals[i])
		if _, err := bw.Write(scratch); err != nil {
			return // client gone; the error is sticky, stop feeding it
		}
	}
	bw.WriteString("]}\n")
	bw.Flush()
}

// valueClass ranks a float64 into the total-order classes the top-k
// comparator uses: NaN sorts below everything (it means "no value"),
// -Inf below every finite, +Inf above. Within a class finite values
// compare numerically; NaNs and same-signed Infs compare equal.
func valueClass(v float64) int {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, -1):
		return 1
	case math.IsInf(v, 1):
		return 3
	}
	return 2
}

// rankLess reports whether (va, ia) ranks strictly below (vb, ib) in
// top-k order. Unlike `va > vb` it is a total order under NaN, so the
// selection is deterministic for any input. Equal values rank the higher
// vertex ID lower, preserving the lower-ID-wins tie-break.
func rankLess(va float64, ia uint32, vb float64, ib uint32) bool {
	ca, cb := valueClass(va), valueClass(vb)
	if ca != cb {
		return ca < cb
	}
	if ca == 2 && va != vb {
		return va < vb
	}
	return ia > ib
}

// topK returns the k highest-ranked values with their vertex IDs,
// descending. A bounded min-heap of the k best seen so far replaces the
// old full-index sort: O(N log k) time and O(k) extra space instead of
// O(N log N)/O(N), and the total order keeps NaN-laden results stable.
func topK(vals []float64, k int) []vertexValue {
	if k > len(vals) {
		k = len(vals)
	}
	if k <= 0 {
		return nil
	}
	type item struct {
		v  float64
		id uint32
	}
	h := make([]item, 0, k)
	// Min-heap under rankLess: h[0] is the worst of the kept k.
	siftUp := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !rankLess(h[i].v, h[i].id, h[p].v, h[p].id) {
				return
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	siftDown := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(h) {
				return
			}
			m := l
			if r := l + 1; r < len(h) && rankLess(h[r].v, h[r].id, h[l].v, h[l].id) {
				m = r
			}
			if !rankLess(h[m].v, h[m].id, h[i].v, h[i].id) {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i, v := range vals {
		if len(h) < k {
			h = append(h, item{v, uint32(i)})
			siftUp(len(h) - 1)
		} else if rankLess(h[0].v, h[0].id, v, uint32(i)) {
			h[0] = item{v, uint32(i)}
			siftDown(0)
		}
	}
	// Pop ascending, fill from the back: out comes out descending.
	out := make([]vertexValue, len(h))
	for n := len(h) - 1; n >= 0; n-- {
		out[n] = vertexValue{Vertex: h[0].id, Value: jsonFloat(h[0].v)}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(0)
	}
	return out
}
