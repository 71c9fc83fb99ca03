package rock_test

// Golden digests: every optimised engine path must stay bit-identical to
// the code it replaced. Each case clusters a fixed input and hashes a
// canonical encoding of the whole result (integers and lengths as
// little-endian uint64, floats via math.Float64bits, wall-clock timings
// zeroed); testdata/golden.json holds the expected sha256 per case.
//
//	go test -run TestGoldenDigests .            # full set
//	go test -short -run TestGoldenDigests .     # Table 3 θ 0.8, basket θ 0.5, stream jaccard θ 0.5
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
	"testing"

	"rock"
	"rock/internal/datagen"
	"rock/internal/experiments"
	"rock/internal/model"
	"rock/internal/rockcore"
	"rock/internal/sample"
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
	return cases
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
