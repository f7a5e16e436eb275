package warehouse

import (
	"math/rand"
	"net"
	"sync"
	"testing"

	"gsv/internal/obs"
	"gsv/internal/oem"
	"gsv/internal/pathexpr"
	"gsv/internal/query"
	"gsv/internal/store"
	"gsv/internal/workload"
)

// TestConcurrentBroadcastQueryBacksAndStats is the regression test for
// the stats data race: before WrapperStats/ViewStats/RemoteStats moved to
// atomic counters, the server's query goroutines incremented plain ints
// (src.Stats.Queries++) while broadcasts, maintenance and stats reads ran
// on other goroutines. Run under -race (the tier-1 suite does), this
// hammers all three paths at once:
//
//   - a mutator applies source updates and broadcasts the reports,
//   - a warehouse client issues query backs (FetchObject/FetchEval),
//   - readers poll the wrapper/view counters and the stats wire request.
func TestConcurrentBroadcastQueryBacksAndStats(t *testing.T) {
	s := store.NewDefault()
	workload.PersonDB(s)
	src := NewSource("persons", s, "ROOT", Level2, NewTransport(0))
	src.DrainReports()

	reg := obs.NewRegistry()
	w := New(src)
	w.EnableObs(reg)
	v, err := w.DefineView("YP", query.MustParse("SELECT ROOT.professor X WHERE X.age <= 45"),
		ViewConfig{Screening: true})
	if err != nil {
		t.Fatal(err)
	}

	server := NewServer(src)
	server.Obs = reg
	server.Traces = w.Traces
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = server.Serve(ln) }()
	t.Cleanup(server.Close)

	remote, err := Dial("persons", ln.Addr().String(), NewTransport(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(remote.Close)

	const rounds = 40
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Mutator: source updates, local maintenance, broadcast to streams.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < rounds; i++ {
			reports, err := src.Modify("A1", oem.Int(int64(30+i%40)))
			if err == nil {
				err = w.ProcessAll(reports)
			}
			if err == nil {
				err = server.Broadcast(reports)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Query-back client: drives the server's wrapper concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := remote.FetchObject("P1"); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Stats readers: raw counters and the wire request.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = src.Stats.Queries.Value()
			_ = src.Stats.ObjectsTouched.Value()
			_ = v.Stats.Reports.Value()
			_ = v.Stats.QueryBacks.Value()
			_ = reg.Snapshot()
			if _, err := remote.FetchStats(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Wait()
	if got := v.Stats.Reports.Value(); got != rounds {
		t.Fatalf("view processed %d reports, want %d", got, rounds)
	}
	if src.Stats.Queries.Value() == 0 {
		t.Fatal("wrapper answered no queries")
	}
}

// TestFetchQueryPinnedUnderModifyStorm is the torn-read regression for
// FetchQuery and FetchQueryAt: evaluation and the member fetch must read
// one pinned version. The query selects the age atoms themselves, so a
// member evaluated at one version and fetched at a later one shows up as
// a returned value that fails the condition.
func TestFetchQueryPinnedUnderModifyStorm(t *testing.T) {
	s := store.NewDefault()
	workload.RelationLike(s, workload.RelationConfig{Relations: 1, TuplesPerRelation: 200, FieldsPerTuple: 2, Seed: 3})
	src := NewSource("rel", s, "REL", Level2, NewTransport(0))
	src.DrainReports()
	ages := s.ByLabel("age")
	q := query.MustParse("SELECT REL.r0.tuple.age X WHERE X > 50")
	limit := oem.Int(50)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := src.Modify(ages[rng.Intn(len(ages))], oem.Int(int64(rng.Intn(100)))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for i := 0; i < 300; i++ {
		var at uint64 // current version on even rounds
		if i%2 == 1 {
			at = s.Seq() - 1
		}
		objs, err := src.FetchQueryAt(q, at)
		if err != nil {
			t.Fatal(err)
		}
		if len(objs) == 0 {
			t.Fatal("empty answer")
		}
		for _, o := range objs {
			if !o.IsAtomic() || !query.OpGt.Apply(o.Atom, limit) {
				t.Fatalf("round %d (at %d): member %s = %v fails the query at the answered version", i, at, o.OID, o.Atom)
			}
		}
	}
}

// TestFetchPathConcurrentWithQueryBacks is the regression for the
// FetchPath data race: FetchPath used the source's shared CentralAccess
// without accessMu while FetchEval and FetchAncestor installed and
// cleared its Stats pointer. Level 3 enrichment of concurrent updates
// walks the same path code. Run under -race.
func TestFetchPathConcurrentWithQueryBacks(t *testing.T) {
	src, _ := newPersonSource(t, Level3)
	before := src.Stats.ObjectsTouched.Value()
	if _, ok, err := src.FetchPath("A3"); err != nil || !ok {
		t.Fatalf("FetchPath: %v %v", ok, err)
	}
	if src.Stats.ObjectsTouched.Value() == before {
		t.Fatal("FetchPath counted no touched objects")
	}

	age := pathexpr.MustParsePath("age")
	profAge := pathexpr.MustParsePath("professor.age")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var err error
				switch g {
				case 0:
					var ok bool
					if _, ok, err = src.FetchPath("A3"); err == nil && !ok {
						t.Error("FetchPath(A3) found no path")
						return
					}
				case 1:
					_, err = src.FetchEval("ROOT", profAge)
				case 2:
					var y oem.OID
					if y, _, err = src.FetchAncestor("A1", age); err == nil && y != "P1" {
						t.Errorf("FetchAncestor(A1, age) = %q, want P1", y)
						return
					}
				default:
					_, err = src.Modify("A1", oem.Int(int64(30+i%40)))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
