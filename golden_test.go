package rock_test

// Golden digests: every optimised engine path must stay bit-identical to
// the code it replaced. Each case clusters a fixed input and hashes a
// canonical encoding of the whole result (integers and lengths as
// little-endian uint64, floats via math.Float64bits, wall-clock timings
// zeroed); testdata/golden.json holds the expected sha256 per case.
//
//	go test -run TestGoldenDigests .            # full set
//	go test -short -run TestGoldenDigests .     # Table 3 θ 0.8, basket θ 0.5, stream and assign jaccard θ 0.5
//	go test -run TestGoldenDigests . -update    # rewrite the digests of the cases run
//
// A change that alters a digest on purpose names the case and the reason
// in CHANGES.md.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"rock"
	"rock/internal/datagen"
	"rock/internal/experiments"
	"rock/internal/model"
	"rock/internal/rockcore"
	"rock/internal/sample"
	"rock/internal/sim"
	"rock/internal/stream"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

const goldenPath = "testdata/golden.json"

// goldenCase is one digested run. short cases also run under -short.
type goldenCase struct {
	name  string
	short bool
	run   func(t *testing.T) any
}

func goldenCases() []goldenCase {
	var cases []goldenCase

	// Table 3: the mushroom records at the Table 3 configuration (the
	// dense table was forced at the parent), traced, with one and two
	// workers.
	for _, theta := range []float64{0.5, 0.8, 0.9} {
		for _, workers := range []int{1, 2} {
			theta, workers := theta, workers
			cases = append(cases, goldenCase{
				name:  fmt.Sprintf("table3/theta=%.1f/workers=%d", theta, workers),
				short: theta == 0.8 && workers == 1,
				run: func(t *testing.T) any {
					md := goldenMushroom()
					res, err := rock.ClusterRecords(md.Schema, md.Records, rock.Config{
						K: 20, Theta: theta, Workers: workers, TraceMerges: true, DenseLimit: 10000,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res
				},
			})
		}
	}

	// A 3000-transaction basket sample, pruned and weeded, with the
	// DenseLimit values that once chose the dense and the sparse table.
	for _, theta := range []float64{0.3, 0.5, 0.7} {
		for _, dense := range []int{0, -1} {
			theta, dense := theta, dense
			cases = append(cases, goldenCase{
				name:  fmt.Sprintf("basket3000/theta=%.1f/dense=%d", theta, dense),
				short: theta == 0.5,
				run: func(t *testing.T) any {
					res, err := rock.ClusterTransactions(goldenBasketSample(), rock.Config{
						K: 10, Theta: theta, MinNeighbors: 2,
						StopMultiple: 3, MinClusterSize: 30, DenseLimit: dense,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res
				},
			})
		}
	}

	// The Figure 2 pipeline: sample, cluster, label every transaction.
	for _, theta := range []float64{0.5, 0.8} {
		theta := theta
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("clusterlarge3000/theta=%.1f", theta),
			run: func(t *testing.T) any {
				lr, err := rock.ClusterLarge(goldenBasket().Txns, experiments.SyntheticPipelineConfig(3000, theta, experiments.DefaultSeed))
				if err != nil {
					t.Fatal(err)
				}
				// The labeler is a derived model; the assignments and the
				// sample clustering are the result.
				return struct {
					Sample, Assign []int
					Labeled        int
					SampleResult   *rock.Result
				}{lr.Sample, lr.Assign, lr.Labeled, lr.SampleResult}
			},
		})
	}

	// The online clusterer on the stream-drift benchmark's stream: every
	// disposition, plus the stats and the published snapshot every 2500
	// arrivals. θ 0 makes every representative adjacent to every arrival
	// and the pool join brute force, so it runs a shorter stream.
	for _, name := range []string{"jaccard", "dice", "cosine", "overlap"} {
		for _, theta := range []float64{0, 0.3, 0.5, 0.7} {
			name, theta := name, theta
			n := 20000
			if theta == 0 {
				n = 3000
			}
			cases = append(cases, goldenCase{
				name:  fmt.Sprintf("stream/%s/theta=%.1f", name, theta),
				short: name == "jaccard" && theta == 0.5,
				run:   func(t *testing.T) any { return goldenStream(name, theta, n) },
			})
		}
	}

	// The serving assigner over a fixed query set: a basket model under the
	// four count measures (the compiled path; θ 0 makes every labeled
	// transaction a neighbor), a weighted-Jaccard model (the scan path), a
	// model whose item ids leave the dense lookup range, and one that
	// shares a transaction between two sets.
	for _, name := range []string{"jaccard", "dice", "cosine", "overlap"} {
		for _, theta := range []float64{0, 0.3, 0.5, 0.7} {
			name, theta := name, theta
			cases = append(cases, goldenCase{
				name:  fmt.Sprintf("assign/%s/theta=%.1f", name, theta),
				short: name == "jaccard" && theta == 0.5,
				run: func(t *testing.T) any {
					snap, queries := goldenAssignModel(name, theta)
					return goldenAssign(t, snap, queries, true)
				},
			})
		}
	}
	cases = append(cases,
		goldenCase{name: "assign/wjaccard/theta=0.5", run: func(t *testing.T) any {
			snap, queries := goldenWeightedModel()
			return goldenAssign(t, snap, queries, false)
		}},
		goldenCase{name: "assign/wide-ids/theta=0.5", run: func(t *testing.T) any {
			snap, queries := goldenAssignModel("jaccard", 0.5)
			// Every id moves past the dense lookup range except one, which
			// turns negative.
			wide := func(txn rock.Transaction) rock.Transaction {
				items := make([]rock.Item, len(txn))
				for i, it := range txn {
					items[i] = it + 1<<21
					if it == 7 {
						items[i] = -3
					}
				}
				return rock.NewTransaction(items...)
			}
			for i, txn := range snap.Txns {
				snap.Txns[i] = wide(txn)
			}
			for i, q := range queries {
				queries[i] = wide(q)
			}
			return goldenAssign(t, snap, queries, true)
		}},
		goldenCase{name: "assign/shared-txn/theta=0.5", run: func(t *testing.T) any {
			snap, queries := goldenAssignModel("jaccard", 0.5)
			// Set 1 also claims set 0's first transaction.
			shared := snap.Sets[0].Points[0]
			pts := snap.Sets[1].Points
			at, _ := slices.BinarySearch(pts, shared)
			snap.Sets[1].Points = slices.Insert(slices.Clone(pts), at, shared)
			snap.Sets[1].Norm = rockcore.ExpectedNeighbors(len(snap.Sets[1].Points), snap.FTheta)
			return goldenAssign(t, snap, queries, true)
		}},
	)
	return cases
}

// goldenAssignment is one digested answer of the serving assigner.
type goldenAssignment struct {
	Cluster int
	Score   float64
}

// goldenAssign compiles snap, checks which path it serves on, and labels
// every query.
func goldenAssign(t *testing.T, snap *model.Snapshot, queries []rock.Transaction, compiled bool) []goldenAssignment {
	a, err := model.Compile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if a.Compiled() != compiled {
		t.Fatalf("compiled path %v, want %v", a.Compiled(), compiled)
	}
	out := make([]goldenAssignment, len(queries))
	for i, q := range queries {
		out[i].Cluster, out[i].Score = a.Assign(q)
	}
	return out
}

// goldenAssignModel labels the first 40 transactions of each of the golden
// basket's clusters and queries the model with 2000 later transactions,
// an empty one and one outside the item universe.
func goldenAssignModel(simName string, theta float64) (*model.Snapshot, []rock.Transaction) {
	d := goldenBasket()
	snap := &model.Snapshot{Theta: theta, FTheta: rockcore.DefaultF(theta), SimName: simName}
	byCluster := map[int][]int{}
	for i, txn := range d.Txns[:20000] {
		c := d.Labels[i]
		if c < 0 || len(byCluster[c]) == 40 {
			continue
		}
		byCluster[c] = append(byCluster[c], len(snap.Txns))
		snap.Txns = append(snap.Txns, txn)
	}
	for c := 0; c < len(d.Defining); c++ {
		if pts := byCluster[c]; len(pts) > 0 {
			snap.Sets = append(snap.Sets, model.Set{
				Cluster: c, Points: pts, Norm: rockcore.ExpectedNeighbors(len(pts), snap.FTheta),
			})
		}
	}
	queries := slices.Clone(d.Txns[20000:22000])
	queries = append(queries, rock.NewTransaction(), rock.NewTransaction(999999, 1000000))
	return snap, queries
}

// goldenWeightedModel labels 60 mushroom records of each class under
// weighted Jaccard and queries it with 1500 later records.
func goldenWeightedModel() (*model.Snapshot, []rock.Transaction) {
	md := goldenMushroom()
	schema := &rock.Schema{Attrs: slices.Clone(md.Schema.Attrs)}
	for a := range schema.Attrs {
		w := make([]float64, len(schema.Attrs[a].Domain))
		for v := range w {
			w[v] = 1 + float64((a+v)%3)/2
		}
		schema.Attrs[a].Weights = w
	}
	enc := rock.NewEncoder(schema)
	const theta = 0.5
	snap := &model.Snapshot{Theta: theta, FTheta: rockcore.DefaultF(theta), SimName: sim.WeightedJaccardName, Schema: schema}
	byClass := map[int][]int{}
	for i, rec := range md.Records[:1000] {
		c := md.Labels[i]
		if len(byClass[c]) == 60 {
			continue
		}
		byClass[c] = append(byClass[c], len(snap.Txns))
		snap.Txns = append(snap.Txns, enc.Encode(rec))
	}
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	slices.Sort(classes)
	for _, c := range classes {
		pts := byClass[c]
		snap.Sets = append(snap.Sets, model.Set{
			Cluster: c, Points: pts, Norm: rockcore.ExpectedNeighbors(len(pts), snap.FTheta),
		})
	}
	var queries []rock.Transaction
	for _, rec := range md.Records[1000:2500] {
		queries = append(queries, enc.Encode(rec))
	}
	return snap, queries
}

// goldenStreamRun is what one stream case digests.
type goldenStreamRun struct {
	Dispositions []stream.Disposition
	Checkpoints  []goldenStreamCheckpoint
}

type goldenStreamCheckpoint struct {
	Clusters   []stream.ClusterStat
	PoolSize   int
	WindowRate float64
	Snapshot   *model.Snapshot
}

func goldenStream(simName string, theta float64, n int) goldenStreamRun {
	gen := datagen.NewDriftStream(datagen.DriftConfig{
		Basket: datagen.ScaledBasketConfig(10), DriftEvery: 5000, DriftFrac: 0.4,
	}, rand.New(rand.NewSource(experiments.DefaultSeed)))
	c := stream.New(stream.Config{
		Theta: theta, SimName: simName, ReclusterEvery: 128, MinPromote: 8, Seed: experiments.DefaultSeed,
	})
	var run goldenStreamRun
	for i := 0; i < n; i++ {
		txn, _ := gen.Next()
		run.Dispositions = append(run.Dispositions, c.Observe(txn))
		if (i+1)%2500 != 0 {
			continue
		}
		var cp goldenStreamCheckpoint
		cp.Clusters, cp.PoolSize, cp.WindowRate = c.Stats()
		cp.Snapshot = c.BuildSnapshot()
		run.Checkpoints = append(run.Checkpoints, cp)
	}
	return run
}

var (
	goldenMushroomData *datagen.MushroomData
	goldenBasketData   *datagen.BasketData
	goldenSample       []rock.Transaction
)

func goldenMushroom() *datagen.MushroomData {
	if goldenMushroomData == nil {
		goldenMushroomData = datagen.Mushroom(datagen.DefaultMushroomConfig(), rand.New(rand.NewSource(experiments.DefaultSeed)))
	}
	return goldenMushroomData
}

func goldenBasket() *datagen.BasketData {
	if goldenBasketData == nil {
		goldenBasketData = datagen.Basket(datagen.DefaultBasketConfig(), rand.New(rand.NewSource(experiments.DefaultSeed)))
	}
	return goldenBasketData
}

func goldenBasketSample() []rock.Transaction {
	if goldenSample == nil {
		d := goldenBasket()
		idx := sample.Indices(len(d.Txns), 3000, rand.New(rand.NewSource(experiments.DefaultSeed)))
		goldenSample = make([]rock.Transaction, len(idx))
		for i, p := range idx {
			goldenSample[i] = d.Txns[p]
		}
	}
	return goldenSample
}

func TestGoldenDigests(t *testing.T) {
	golden := map[string]string{}
	raw, err := os.ReadFile(goldenPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	case !*updateGolden || !os.IsNotExist(err):
		t.Fatal(err)
	}
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && !c.short {
				t.Skip("full set only")
			}
			got := goldenDigest(c.run(t))
			if *updateGolden {
				golden[c.name] = got
				return
			}
			if want, ok := golden[c.name]; !ok {
				t.Errorf("no golden digest; rerun with -update")
			} else if got != want {
				t.Errorf("digest %s, golden %s", got, want)
			}
		})
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenDigest hashes v's canonical encoding, with every rockcore.Timings
// inside it zeroed: timings are wall-clock, not part of a result.
func goldenDigest(v any) string {
	h := sha256.New()
	encodeCanonical(h, reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil))
}

var timingsType = reflect.TypeOf(rockcore.Timings{})

// encodeCanonical writes v depth first: scalars as 8 little-endian bytes,
// slices and strings with their length first, pointers with a nil flag.
func encodeCanonical(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			put(0)
			return
		}
		put(1)
		encodeCanonical(h, v.Elem())
	case reflect.Struct:
		if v.Type() == timingsType {
			v = reflect.Zero(timingsType)
		}
		for i := 0; i < v.NumField(); i++ {
			encodeCanonical(h, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			encodeCanonical(h, v.Index(i))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	default:
		panic(fmt.Sprintf("golden: cannot encode %s", v.Type()))
	}
}
