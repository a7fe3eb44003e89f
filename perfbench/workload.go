package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"time"

	"raal"
	"raal/internal/serve"
	"raal/internal/workload"
)

// Workload names.
const (
	wlSelect    = "select_cold"
	wlRouted    = "routed_hot"
	wlRecommend = "recommend_grid"
)

// Workload pool sizes, and how many plannable queries the generator
// draws per pooled one (see generate).
//
// The select_cold pool (about three encode-cache keys per request)
// cycles in order, so an entry is evicted from the 256-entry cache long
// before its key comes round again. The routed_hot keys fit one
// replica's cache even counting the copies hedges plant on the other
// replica; their popularity is Zipf(s, v) over pool index, which keeps
// the hottest key near 4% of traffic. The recommend_grid plans × 60 grid
// allocations again far exceed the cache.
const (
	selectPool    = 1200
	routedPool    = 198
	recommendPool = 120
	oversample    = 4
	routedZipfS   = 1.1
	routedZipfV   = 10
	routedSeqLen  = 1 << 16
)

// answer is the in-process reference for one distinct request.
type answer struct {
	cost  float64
	index int            // /select: the chosen candidate
	cands int            // HTTP: the candidate count the server reports
	res   raal.Resources // recommend_grid: the chosen allocation
}

// opResult is one operation as the client saw it.
type opResult struct {
	lat     time.Duration
	fail    string // "" for a correct answer, else the failure class
	key     int    // the distinct request sent
	replica string // the replica that answered, when the router says
}

// loop runs one workload's operations from its client goroutines.
type loop struct {
	clients int
	keys    int // distinct requests
	warm    int // operations sent before timing starts
	do      func(client int, seq uint64) opResult
	close   func()
}

// validGrid is DefaultResourceGrid without allocations the serving layer
// would reject.
func validGrid() []raal.Resources {
	var out []raal.Resources
	for _, r := range raal.DefaultResourceGrid() {
		if r.Validate() == nil {
			out = append(out, r)
		}
	}
	return out
}

// query is one generated request: SQL, an allocation, and its candidate
// plans as the reference planner produced them.
type query struct {
	sql   string
	res   raal.Resources
	plans []*raal.Plan
}

// generate returns n distinct plannable queries from the IMDB workload
// generator seeded with seed, each with an allocation from the grid, and
// the reference answer ref gives each. It draws oversample × n queries,
// orders them by size, the operator count that drives the workload's
// cost, and keeps one from the middle of each run of oversample: every
// seed's pool then has nearly the same spread of sizes, and the figures
// measure the code rather than the luck of the draw. Pool index i holds
// size quantile i·stride mod n, a golden-ratio stride, so any stretch of
// consecutive indices spans the whole range. A query's plans are kept
// only when keep is set.
func generate(st *stack, seed int64, n int, keep bool, size func([]*raal.Plan) int, ref func(q query) answer) ([]query, []answer, error) {
	gen, err := workload.NewIMDBGenerator(st.ds.DB, seed)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	grid := validGrid()
	type sized struct {
		q    query
		size int
	}
	var drawn []sized
	seen := map[string]bool{}
	for tries := 0; len(drawn) < oversample*n; tries++ {
		if tries > 100*oversample*n {
			return nil, nil, fmt.Errorf("generator gave %d distinct plannable queries in %d draws", len(drawn), tries)
		}
		sql := gen.GenerateOne()
		if seen[sql] {
			continue
		}
		seen[sql] = true
		plans, err := st.sys.Plan(sql)
		if err != nil || len(plans) == 0 {
			continue
		}
		drawn = append(drawn, sized{query{sql: sql, res: grid[rng.Intn(len(grid))]}, size(plans)})
	}
	sort.SliceStable(drawn, func(i, j int) bool { return drawn[i].size < drawn[j].size })
	stride := n * 618 / 1000
	for gcd(stride, n) != 1 {
		stride++
	}
	qs, want := make([]query, n), make([]answer, n)
	for i := range qs {
		q := drawn[(i*stride%n)*oversample+oversample/2].q
		if q.plans, err = st.sys.Plan(q.sql); err != nil {
			return nil, nil, err
		}
		want[i] = ref(q)
		if !keep {
			q.plans = nil
		}
		qs[i] = q
	}
	return qs, want, nil
}

// nodes counts the operators of plans.
func nodes(plans []*raal.Plan) int {
	n := 0
	for _, p := range plans {
		n += len(p.Nodes)
	}
	return n
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// httpOp is one distinct HTTP request and its reference answer.
type httpOp struct {
	body []byte
	want answer
}

func httpOps(qs []query, want []answer) []httpOp {
	ops := make([]httpOp, len(qs))
	for i, q := range qs {
		body, _ := json.Marshal(serve.EstimateRequest{
			SQL: q.sql, Executors: q.res.Executors, Cores: q.res.ExecCores, MemMB: q.res.ExecMemMB,
		}) // a struct of strings and numbers always marshals
		ops[i] = httpOp{body: body, want: want[i]}
	}
	return ops
}

// newLoop generates the workload's requests from seed, computes the
// reference answer of each with oracle, and returns the closed loop
// that sends them to the stack.
func newLoop(w string, st *stack, seed int64, oracle *raal.CostModel, tr *tracer) (*loop, error) {
	clients := min(runtime.NumCPU(), 2)
	rng := rand.New(rand.NewSource(seed))
	switch w {
	case wlSelect:
		qs, want, err := generate(st, seed, selectPool, false, func(ps []*raal.Plan) int { return nodes(ps[:min(len(ps), serveCandidates)]) }, func(q query) answer {
			cands := q.plans[:min(len(q.plans), serveCandidates)]
			best, cost := oracle.SelectPlan(cands, q.res)
			a := answer{cost: cost, cands: len(cands)}
			for j, p := range cands {
				if p == best {
					a.index = j
				}
			}
			return a
		})
		if err != nil {
			return nil, err
		}
		order := rng.Perm(len(qs))
		return newHTTPLoop(st.replicas[0].url+"/select", httpOps(qs, want), order, clients, 2*serveEncodeCache, true, tr), nil
	case wlRouted:
		qs, want, err := generate(st, seed, routedPool, false, nodes, func(q query) answer {
			return answer{cost: oracle.Estimate(q.plans[0], q.res), cands: len(q.plans)}
		})
		if err != nil {
			return nil, err
		}
		ops := httpOps(qs, want)
		// Warm-up sends every hot key once; then popularity is Zipf over
		// pool index.
		zipf := rand.NewZipf(rng, routedZipfS, routedZipfV, uint64(len(ops)-1))
		order := rng.Perm(len(ops))
		for i := 0; i < routedSeqLen; i++ {
			order = append(order, int(zipf.Uint64()))
		}
		return newHTTPLoop(st.router.url+"/estimate", ops, order, clients, len(ops), false, tr), nil
	case wlRecommend:
		grid := raal.DefaultResourceGrid()
		qs, want, err := generate(st, seed, recommendPool, true, func(ps []*raal.Plan) int { return nodes(ps[:1]) }, func(q query) answer {
			res, cost := oracle.RecommendResources(q.plans[0], grid)
			return answer{cost: cost, res: res}
		})
		if err != nil {
			return nil, err
		}
		order := rng.Perm(len(qs))
		return &loop{clients: 1, keys: len(qs), warm: 4, close: func() {}, do: func(_ int, seq uint64) opResult {
			k := order[seq%uint64(len(order))]
			plan := qs[k].plans[0]
			var res raal.Resources
			var cost float64
			start := time.Now()
			if tr != nil && tr.on.Load() {
				id, t0 := tr.next(), tr.now()
				tr.call(ctxWith(seq+1, id), layerCore, len(grid), func() { res, cost = st.local.RecommendResources(plan, grid) })
				tr.add(span{layer: layerClient, id: id, req: seq + 1, start: t0, end: tr.now()})
			} else {
				res, cost = st.local.RecommendResources(plan, grid)
			}
			lat := time.Since(start)
			fail := ""
			if res != want[k].res || math.Float64bits(cost) != math.Float64bits(want[k].cost) {
				fail = failMismatch
			}
			return opResult{lat: lat, fail: fail, key: k}
		}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", w)
}

// Failure classes of an operation.
const (
	failTransport   = "transport"
	failStatus      = "status"
	failEmpty       = "empty"
	failUndecodable = "undecodable"
	failDegraded    = "degraded"
	failMismatch    = "mismatch"
)

// classify decides whether one HTTP answer is the reference answer. Costs
// must be bit-equal: JSON carries float64 round-trip exactly.
func classify(status int, body []byte, err error, want answer, isSelect bool) string {
	switch {
	case err != nil:
		return failTransport
	case status != http.StatusOK:
		return failStatus
	case len(bytes.TrimSpace(body)) == 0:
		return failEmpty
	}
	var got serve.EstimateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return failUndecodable
	}
	switch {
	case got.Degraded:
		return failDegraded
	case math.Float64bits(got.CostSec) != math.Float64bits(want.cost),
		got.Candidates != want.cands,
		isSelect && got.PlanIndex != want.index:
		return failMismatch
	}
	return ""
}

// newHTTPLoop drives url with ops in the given order, one keep-alive
// connection per client.
func newHTTPLoop(url string, ops []httpOp, order []int, clients, warm int, isSelect bool, tr *tracer) *loop {
	hc := make([]*http.Client, clients)
	for i := range hc {
		hc[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return &loop{
		clients: clients, keys: len(ops), warm: warm,
		close: func() {
			for _, c := range hc {
				c.CloseIdleConnections()
			}
		},
		do: func(client int, seq uint64) opResult {
			k := order[seq%uint64(len(order))]
			var id uint64
			var t0 int64
			traced := tr != nil && tr.on.Load()
			if traced {
				id, t0 = tr.next(), tr.now()
			}
			start := time.Now()
			status, body, replica, err := post(hc[client], url, ops[k].body, seq+1, id)
			fail := classify(status, body, err, ops[k].want, isSelect)
			lat := time.Since(start)
			if traced {
				tr.add(span{layer: layerClient, id: id, req: seq + 1, start: t0, end: tr.now(), replica: replica})
			}
			return opResult{lat: lat, fail: fail, key: k, replica: replica}
		},
	}
}

// post sends one request; a non-zero span ID is forwarded with the
// request ID for the servers' tracing middleware.
func post(c *http.Client, url string, body []byte, req, spanID uint64) (int, []byte, string, error) {
	r, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	r.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		r.Header.Set(hdrRequest, strconv.FormatUint(req, 10))
		r.Header.Set(hdrParent, strconv.FormatUint(spanID, 10))
	}
	resp, err := c.Do(r)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header.Get("X-Raal-Replica"), err
}
