package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	coordattack "repro"
	"repro/internal/chaos"
	"repro/internal/serve/wire"
)

// One declaration per verdict class. Each class's request struct is
// declared once, with three methods: resolve checks everything that does
// not depend on a node's configuration and yields the canonical cache
// key, limit applies the node's bounds, and compute runs the verdict.
// A node's and a coordinator's handlers are the same code, so a body
// gets one answer whichever path or cache tier serves it.

// query is the behaviour a verdict class declares on its request type.
type query interface {
	// resolve validates the decoded request as far as every tier can,
	// without node limits, and returns its canonical cache key; ""
	// marks an uncacheable class (chaos).
	resolve() (string, error)
	// limit applies a node's configured bounds to a resolved request.
	limit(cfg *Config) error
	// compute runs the verdict of a resolved, limited request under ctx.
	compute(s *Server, ctx context.Context) (any, error)
}

// Class is one verdict class: its single-item endpoint, its verdict
// frame kind and its request type.
type Class struct {
	// Path is the single-item endpoint; a batch item is a body of it.
	Path string
	// Kind is the verdict frame kind (KindInvalid: classify answers
	// JSON only).
	Kind wire.Kind
	// light classes run on the light gate, cached but without the
	// circuit breaker.
	light    bool
	newQuery func() query
	newBatch func() batchBody
}

// The verdict classes.
var (
	Classify    = declare[classifyRequest]("/v1/classify", wire.KindInvalid, true)
	Solvable    = declare[solvableRequest]("/v1/solvable", wire.KindSolvable, false)
	NetSolvable = declare[netSolvableRequest]("/v1/net/solvable", wire.KindNetSolvable, false)
	Chaos       = declare[ChaosRequest]("/v1/chaos", wire.KindChaos, false)
)

func declare[Q any, P interface {
	*Q
	query
}](path string, kind wire.Kind, light bool) *Class {
	return &Class{
		Path:     path,
		Kind:     kind,
		light:    light,
		newQuery: func() query { return P(new(Q)) },
		newBatch: func() batchBody { return new(batchOf[Q, P]) },
	}
}

// Query is one parsed request of a class.
type Query struct {
	// Key is the canonical cache key ("" for the uncacheable chaos
	// class).
	Key string
	// Err is the request's resolve (or, on a node, limit) error: a 400
	// for a single request, a per-item 400 line in a batch.
	Err error
	q   query
}

// Body re-encodes the request: the form a coordinator forwards an item
// in. It parses back to the same key.
func (q Query) Body() ([]byte, error) { return json.Marshal(q.q) }

func resolveQuery(q query) Query {
	key, err := q.resolve()
	return Query{Key: key, Err: err, q: q}
}

// Parse strictly decodes one single-endpoint body of the class and
// resolves it. Every error is a 400 carrying the error's text.
func (c *Class) Parse(body []byte) (Query, error) {
	return c.parse(bytes.NewReader(body))
}

func (c *Class) parse(r io.Reader) (Query, error) {
	q := c.newQuery()
	if err := decodeStrict(r, q); err != nil {
		return Query{}, err
	}
	out := resolveQuery(q)
	return out, out.Err
}

// parseBatch strictly decodes a batch body {"items":[...]} of the class
// in one typed decode. A JSON-shape error anywhere (unknown field, wrong
// type, trailing data) is the returned error and rejects the whole
// batch; each item's resolve error is its Query.Err.
func (c *Class) parseBatch(r io.Reader) ([]Query, error) {
	b := c.newBatch()
	if err := decodeStrict(r, b); err != nil {
		return nil, err
	}
	return b.resolveAll(), nil
}

// batchBody is a class's typed batch decode target.
type batchBody interface{ resolveAll() []Query }

type batchOf[Q any, P interface {
	*Q
	query
}] struct {
	Items []Q `json:"items"`
}

func (b *batchOf[Q, P]) resolveAll() []Query {
	out := make([]Query, len(b.Items))
	for i := range b.Items {
		out[i] = resolveQuery(P(&b.Items[i]))
	}
	return out
}

var errTrailingData = errors.New("trailing data after the JSON value")

// decodeStrict decodes exactly one JSON value from r into v: unknown
// fields, and anything but whitespace after the value, are errors. The
// error text is what every tier answers its 400 with.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errTrailingData
		}
	}
	if err != nil {
		return fmt.Errorf("bad request: %w", err)
	}
	return nil
}

// withMeta returns a copy of a stored verdict carrying the serving
// metadata of this answer, as far as the verdict type has the fields:
// whether a cache tier served it, whether a concurrent identical
// request shared its computation, and how long the answer took.
func withMeta(v any, cached, shared bool, elapsedMs int64) any {
	switch t := v.(type) {
	case classifyResponse:
		t.Cached = cached
		return &t
	case solvableResponse:
		t.Cached, t.Shared, t.ElapsedMs = cached, shared, elapsedMs
		return &t
	case netSolvableResponse:
		t.Cached, t.ElapsedMs = cached, elapsedMs
		return &t
	case chaosResponse:
		t.ElapsedMs = elapsedMs
		return &t
	}
	return v
}

// --- classify ---------------------------------------------------------

type classifyRequest struct {
	SchemeSelector
	sch *coordattack.Scheme
}

func (q *classifyRequest) resolve() (string, error) {
	sch, err := q.Resolve()
	if err != nil {
		return "", err
	}
	q.sch = sch
	return ClassifyKey(sch), nil
}

func (q *classifyRequest) limit(*Config) error { return nil }

func (q *classifyRequest) compute(*Server, context.Context) (any, error) {
	return classifyVerdict(q.sch), nil
}

// --- solvable ---------------------------------------------------------

type solvableRequest struct {
	SchemeSelector
	// Horizon runs the full analysis at one fixed horizon.
	Horizon int `json:"horizon,omitempty"`
	// MinRounds searches for the smallest solvable horizon ≤ MaxHorizon.
	MinRounds  bool `json:"minRounds,omitempty"`
	MaxHorizon int  `json:"maxHorizon,omitempty"`

	sch     *coordattack.Scheme
	horizon int // the analyzed horizon: Horizon, or MaxHorizon when MinRounds
}

func (q *solvableRequest) resolve() (string, error) {
	sch, err := q.Resolve()
	if err != nil {
		return "", err
	}
	q.sch, q.horizon = sch, q.Horizon
	if q.MinRounds {
		q.horizon = q.MaxHorizon
	}
	return SolvableKey(sch, q.horizon, q.MinRounds), nil
}

func (q *solvableRequest) limit(cfg *Config) error {
	if q.horizon < 0 || q.horizon > cfg.MaxHorizon {
		return fmt.Errorf("horizon %d out of range [0, %d]", q.horizon, cfg.MaxHorizon)
	}
	return nil
}

func (q *solvableRequest) compute(s *Server, ctx context.Context) (any, error) {
	return s.solveVerdict(ctx, q.sch, q.horizon, q.MinRounds)
}

// --- net-solvable -----------------------------------------------------

type netSolvableRequest struct {
	GraphSelector
	F      int `json:"f"`
	Rounds int `json:"rounds"`

	g *coordattack.Graph
}

func (q *netSolvableRequest) resolve() (string, error) {
	g, err := q.Resolve()
	if err != nil {
		return "", err
	}
	if q.F < 0 {
		return "", errors.New("f must be ≥ 0")
	}
	q.g = g
	return NetSolvableKey(g, q.F, q.Rounds), nil
}

func (q *netSolvableRequest) limit(cfg *Config) error {
	if n := q.g.N(); n < 2 || n > cfg.MaxProcs {
		return fmt.Errorf("graph size %d out of range [2, %d]", n, cfg.MaxProcs)
	}
	if q.Rounds < 0 || q.Rounds > cfg.MaxHorizon {
		return fmt.Errorf("rounds %d out of range [0, %d]", q.Rounds, cfg.MaxHorizon)
	}
	return nil
}

func (q *netSolvableRequest) compute(s *Server, ctx context.Context) (any, error) {
	return s.netVerdict(ctx, q.g, q.F, q.Rounds)
}

// --- chaos ------------------------------------------------------------

// ChaosRequest is the /v1/chaos body. The coordinator's fan-out parses
// it with ParseChaos and re-encodes it per shard with Executions and
// Seed rewritten.
type ChaosRequest struct {
	SchemeSelector
	Executions    int   `json:"executions,omitempty"`
	Seed          int64 `json:"seed,omitempty"`
	MaxPrefix     int   `json:"maxPrefix,omitempty"`
	MaxRounds     int   `json:"maxRounds,omitempty"`
	NoInvariant   bool  `json:"noInvariant,omitempty"`
	NoShrink      bool  `json:"noShrink,omitempty"`
	MaxViolations int   `json:"maxViolations,omitempty"`

	sch  *coordattack.Scheme
	algo chaos.Algorithm
}

// ParseChaos strictly decodes and resolves one /v1/chaos body from r,
// returning the typed request.
func ParseChaos(r io.Reader) (*ChaosRequest, error) {
	q, err := Chaos.parse(r)
	if err != nil {
		return nil, err
	}
	return q.q.(*ChaosRequest), nil
}

func (q *ChaosRequest) resolve() (string, error) {
	sch, err := q.Resolve()
	if err != nil {
		return "", err
	}
	if q.algo, err = chaos.AWForScheme(sch); err != nil {
		return "", err
	}
	q.sch = sch
	return "", nil
}

func (q *ChaosRequest) limit(cfg *Config) error {
	if q.Executions > cfg.MaxExecutions {
		return fmt.Errorf("executions %d exceeds cap %d", q.Executions, cfg.MaxExecutions)
	}
	return nil
}

func (q *ChaosRequest) compute(s *Server, ctx context.Context) (any, error) {
	return s.chaosCampaign(ctx, q)
}
