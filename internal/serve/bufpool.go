package serve

import (
	"bytes"
	"encoding/json"
	"sync"

	coordattack "repro"
)

// Pooled response encoding. Every JSON response is marshaled into a
// pooled buffer first — so encode errors surface before any byte or
// status line reaches the client — then written in a single Write.
// The encoder is pooled with its buffer: json.NewEncoder per response
// was one of the hot path's steady allocations.

// jsonBuf pairs a reusable buffer with an encoder bound to it.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// jsonBufMax is the largest buffer the pool retains; a response that
// ballooned past it (huge chaos reports) is dropped rather than pinned.
const jsonBufMax = 1 << 20

var jsonBufPool = sync.Pool{New: func() any {
	jb := &jsonBuf{}
	jb.enc = json.NewEncoder(&jb.buf)
	return jb
}}

// getJSONBuf returns a reset buffer whose encoder writes compact JSON,
// the one format of every JSON body: whole responses and JSON-lines
// batch records alike (Encode ends each value with one newline).
func getJSONBuf() *jsonBuf {
	jb := jsonBufPool.Get().(*jsonBuf)
	jb.buf.Reset()
	return jb
}

func putJSONBuf(jb *jsonBuf) {
	if jb.buf.Cap() <= jsonBufMax {
		jsonBufPool.Put(jb)
	}
}

// frameBuf is a reusable byte slice for binary verdict frames — the
// wire-encoding analogue of jsonBuf. Wrapped in a struct so the pool
// round-trips a stable pointer instead of re-boxing a slice header per
// request.
type frameBuf struct {
	b []byte
}

var frameBufPool = sync.Pool{New: func() any {
	return &frameBuf{b: make([]byte, 0, 4096)}
}}

func getFrameBuf() *frameBuf {
	return frameBufPool.Get().(*frameBuf)
}

func putFrameBuf(fb *frameBuf) {
	if cap(fb.b) <= jsonBufMax {
		frameBufPool.Put(fb)
	}
}

// scratchPool hands each engine run a reusable arena
// (fullinfo.Scratch): flat tables, interner shards, and frontier
// buffers persist across cache-miss requests instead of being
// reallocated per call. sync.Pool gives each concurrent request its
// own arena; Analyze releases it before the handler returns it here.
var scratchPool = sync.Pool{New: func() any {
	return coordattack.NewEngineScratch()
}}
