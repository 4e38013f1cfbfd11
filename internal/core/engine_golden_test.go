package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"ihc/internal/fault"
	"ihc/internal/hamilton"
	"ihc/internal/simnet"
)

// The engine golden matrix pins the raw event engine's output across its
// switching modes: full IHC broadcasts on six families under virtual
// cut-through, store-and-forward and wormhole switching, saturated off
// and on, μ ∈ {1, 2, 3}, τ_S ∈ {0, 100}, background load ρ ∈ {0, 0.2},
// η ∈ {1, 2} and GOMAXPROCS w ∈ {1, 3}; the delivery log holds every run
// on one engine worker at either w. Rows with ρ = 0.2 and η = 2 also
// carry one permanently broken link. The full cross product has 1,728
// runs; the test keeps every seventh, a diagonal that mixes every
// dimension, and checks it still covers each engine path below. Each row
// records Finish, Events, every hop counter, LinkBusy, FaultDrops and a
// SHA-256 over the delivery log in engine order, so any change to the
// event order, to a switching decision or to a delivered copy shows up
// as a changed row. Performance work on the engine must leave every row
// as it is.

type engineRow struct {
	name                                   string
	finish                                 simnet.Time
	events                                 int64
	contentions, cutThroughs, bufferedHops int
	stalls, bgBlocked                      int
	linkBusy                               simnet.Time
	faultDrops                             int
	sha                                    string
}

// engineGoldenStride keeps every engineGoldenStride-th run of the cross
// product. 7 is coprime with every dimension's size, so the kept rows
// cycle through all combinations of the fastest-varying dimensions.
const engineGoldenStride = 7

var (
	engineGoldenFamilies = []string{"Q4", "Q5", "SQ4", "H3", "TQ4", "KT4x2"}
	engineGoldenModes    = []simnet.Mode{simnet.VirtualCutThrough, simnet.StoreAndForward, simnet.Wormhole}
)

// digestDeliveries hashes every field of every delivery in order.
func digestDeliveries(ds []simnet.Delivery) string {
	h := sha256.New()
	var buf [41]byte
	for _, d := range ds {
		binary.LittleEndian.PutUint64(buf[0:], uint64(d.ID.Source))
		binary.LittleEndian.PutUint64(buf[8:], uint64(d.ID.Channel))
		binary.LittleEndian.PutUint64(buf[16:], uint64(d.ID.Seq))
		binary.LittleEndian.PutUint64(buf[24:], uint64(d.Node))
		binary.LittleEndian.PutUint64(buf[32:], uint64(d.At))
		buf[40] = 0
		if d.Corrupted {
			buf[40] = 1
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hopTrace is an Observer that records each packet's hops in hop order.
type hopTrace map[simnet.PacketID][]simnet.HopEvent

func (tr hopTrace) OnHop(h simnet.HopEvent) { tr[h.ID] = append(tr[h.ID], h) }
func (hopTrace) OnDeliver(simnet.Delivery)  {}

// digestTraces hashes every hop of every packet, packets in ID order.
func digestTraces(tr hopTrace) string {
	ids := make([]simnet.PacketID, 0, len(tr))
	for id := range tr {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b simnet.PacketID) int {
		return cmp.Or(cmp.Compare(a.Source, b.Source), cmp.Compare(a.Channel, b.Channel), cmp.Compare(a.Seq, b.Seq))
	})
	h := sha256.New()
	var buf [41]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(buf[0:], uint64(id.Source))
		binary.LittleEndian.PutUint64(buf[8:], uint64(id.Channel))
		binary.LittleEndian.PutUint64(buf[16:], uint64(id.Seq))
		h.Write(buf[:24])
		for _, hp := range tr[id] {
			binary.LittleEndian.PutUint64(buf[0:], uint64(hp.From))
			binary.LittleEndian.PutUint64(buf[8:], uint64(hp.To))
			binary.LittleEndian.PutUint64(buf[16:], uint64(hp.HeaderDepart))
			binary.LittleEndian.PutUint64(buf[24:], uint64(hp.TailArrive))
			buf[32] = byte(hp.Kind)
			buf[33] = 0
			if hp.Blocked {
				buf[33] = 1
			}
			h.Write(buf[:34])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func buildFamily(t *testing.T, name string) *IHC {
	t.Helper()
	in, err := hamilton.Parse(name)
	if err != nil {
		t.Fatal(err)
	}
	g, cycles, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(g, cycles)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// engineCoverage counts the kept rows that exercise each engine path.
type engineCoverage struct {
	contend, buffer, cutFallback, stall, bg, drop, satCut int
}

// runEngineGolden executes the kept rows of the matrix in order.
func runEngineGolden(t *testing.T) ([]engineRow, engineCoverage) {
	t.Helper()
	var rows []engineRow
	var cov engineCoverage
	count := func(c *int, on bool) {
		if on {
			*c++
		}
	}
	idx := 0
	for _, fam := range engineGoldenFamilies {
		x := buildFamily(t, fam)
		edges := x.Graph().Edges()
		for _, mode := range engineGoldenModes {
			for _, sat := range []bool{false, true} {
				for mu := 1; mu <= 3; mu++ {
					for _, tauS := range []simnet.Time{0, 100} {
						for _, rho := range []float64{0, 0.2} {
							for eta := 1; eta <= 2; eta++ {
								for _, w := range []int{1, 3} {
									i := idx
									idx++
									if i%engineGoldenStride != 0 {
										continue
									}
									cfg := Config{
										Eta:              eta,
										Params:           simnet.Params{TauS: tauS, Alpha: 20, Mu: mu, D: 37, Mode: mode, Rho: rho, Seed: int64(i)},
										Saturated:        sat,
										SkipCopies:       true,
										RecordDeliveries: true,
									}
									if rho > 0 && eta == 2 {
										e := edges[i%len(edges)]
										plan := &fault.TemporalPlan{Links: []fault.LinkFault{{U: e.U, V: e.V, Until: fault.Forever}}}
										inj, err := plan.Compile(x.Graph())
										if err != nil {
											t.Fatal(err)
										}
										cfg.Fault = inj
									}
									name := fmt.Sprintf("%s/%s/sat=%t/mu=%d/tauS=%d/rho=%g/eta=%d/w=%d", fam, mode, sat, mu, tauS, rho, eta, w)
									procs := runtime.GOMAXPROCS(w)
									res, err := x.Run(cfg)
									runtime.GOMAXPROCS(procs)
									if err != nil {
										t.Fatalf("%s: %v", name, err)
									}
									rows = append(rows, engineRow{
										name:         name,
										finish:       res.Finish,
										events:       res.Events,
										contentions:  res.Contentions,
										cutThroughs:  res.CutThroughs,
										bufferedHops: res.BufferedHops,
										stalls:       res.Stalls,
										bgBlocked:    res.BgBlocked,
										linkBusy:     res.LinkBusy,
										faultDrops:   res.FaultDrops,
										sha:          digestDeliveries(res.Deliveriesv),
									})
									blocked := res.Contentions > 0 || res.BgBlocked > 0
									count(&cov.contend, res.Contentions > 0)
									count(&cov.buffer, res.BufferedHops > 0)
									count(&cov.cutFallback, mode == simnet.VirtualCutThrough && !sat && blocked && res.BufferedHops > 0)
									count(&cov.stall, res.Stalls > 0)
									count(&cov.bg, res.BgBlocked > 0)
									count(&cov.drop, res.FaultDrops > 0)
									count(&cov.satCut, sat && mode != simnet.StoreAndForward)
								}
							}
						}
					}
				}
			}
		}
	}
	return rows, cov
}

// TestEngineGolden compares the matrix against the recorded rows, prints
// both versions of every row that differs, and checks that the kept rows
// still reach every path the engine can take: contention, buffered hops,
// the blocked cut-through fallback (whose send time is derived from the
// header's arrival), wormhole stalls, background blocking, fault drops
// and saturated cut requests (also derived from the arrival).
func TestEngineGolden(t *testing.T) {
	got, cov := runEngineGolden(t)
	if len(got) != len(engineGolden) {
		t.Fatalf("matrix produced %d rows, golden table has %d", len(got), len(engineGolden))
	}
	bad := 0
	for i, r := range got {
		if r != engineGolden[i] {
			bad++
			t.Errorf("row %d differs:\n got  %#v\n want %#v", i, r, engineGolden[i])
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d golden rows differ", bad, len(got))
	}
	if cov.contend == 0 || cov.buffer == 0 || cov.cutFallback == 0 || cov.stall == 0 ||
		cov.bg == 0 || cov.drop == 0 || cov.satCut == 0 {
		t.Fatalf("kept rows miss an engine path: %+v", cov)
	}
}

// TestEngineGoldenTraces pins the per-hop trace of one stage per
// switching mode: stage 0 of a Q4 broadcast at η = 1 and μ = 2, so
// packets contend, under background load ρ = 0.2 with τ_S = 0.
func TestEngineGoldenTraces(t *testing.T) {
	x := buildFamily(t, "Q4")
	specs, err := x.StagePackets(allCycles(x.Gamma()), 0, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range engineGoldenModes {
		net, err := simnet.New(x.Graph(), simnet.Params{TauS: 0, Alpha: 20, Mu: 2, D: 37, Mode: mode, Rho: 0.2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		tr := hopTrace{}
		if _, err := net.Run(specs, simnet.Options{Observe: tr}); err != nil {
			t.Fatal(err)
		}
		if got := digestTraces(tr); got != engineGoldenTraces[mode] {
			t.Errorf("%s: trace digest %s, want %s", mode, got, engineGoldenTraces[mode])
		}
	}
}

// engineGoldenTraces holds the recorded trace digests per switching mode.
var engineGoldenTraces = map[simnet.Mode]string{
	simnet.VirtualCutThrough: "7661fc48a56fc47bd68700a64691fcf8dd8b250de7c1d9d17899b1ac3d7bae24", // 878 contentions, 577 buffered hops, 315 blocked by background traffic
	simnet.StoreAndForward:   "c6a05644102f6a663582531374bdd75970e041b20088880cf7cbf67dc7703362", // 383 contentions, 896 buffered hops, 194 blocked by background traffic
	simnet.Wormhole:          "ce117fcd3c8d6ad404219fcc9fb55e70665c999fe997b228e01843bbb53c35cf", // 678 contentions, 724 stalls, 193 blocked by background traffic
}

// engineGolden holds the recorded rows, in runEngineGolden's order.
// Record them again only for a deliberate change of behaviour, never to
// absorb a performance change.
var engineGolden = []engineRow{
	{"Q4/virtual-cut-through/sat=false/mu=1/tauS=0/rho=0/eta=1/w=1", 300, 960, 0, 896, 0, 0, 0, 19200, 0, "e33969928eabeb48a6d6629a726083d07c4b9f6a419b8d4a898dadfc39c082da"},
	{"Q4/virtual-cut-through/sat=false/mu=1/tauS=0/rho=0.2/eta=2/w=3", 1184, 959, 200, 477, 209, 0, 267, 14400, 30, "6414bc4b3b650a49670116c7bfc27b76782526264dab405781ee17a782237f0d"},
	{"Q4/virtual-cut-through/sat=false/mu=1/tauS=100/rho=0.2/eta=2/w=1", 2512, 902, 52, 534, 152, 0, 171, 14400, 30, "b948266c356ce36f5a4a97cd43da9169ce29f7004cf52958bf4c4f406a5ed7ec"},
	{"Q4/virtual-cut-through/sat=false/mu=2/tauS=0/rho=0.2/eta=1/w=3", 1280, 1582, 911, 274, 622, 0, 338, 38400, 0, "5e8b74a1fcb80b024f20607a3b4837a2f19e1edd1587f92378eecea4d112f142"},
	{"Q4/virtual-cut-through/sat=false/mu=2/tauS=100/rho=0.2/eta=1/w=1", 2099, 1431, 475, 425, 471, 0, 306, 38400, 0, "fe2a0a88792cbc2005d86801f7f942edf1212bd5991f5abee92e94ee3d15a21a"},
	{"Q4/virtual-cut-through/sat=false/mu=3/tauS=0/rho=0/eta=2/w=3", 1240, 1408, 448, 448, 448, 0, 0, 57600, 0, "9a43cd1ac80608ff9e8ada6dee11789230b256415758575704cec3f17836e57c"},
	{"Q4/virtual-cut-through/sat=false/mu=3/tauS=100/rho=0/eta=2/w=1", 2840, 1408, 448, 448, 448, 0, 0, 57600, 0, "f75d6a2182399a9f193f87a8d5a71d34d0202207dc0c0575743a2358d1dc7eff"},
	{"Q4/virtual-cut-through/sat=true/mu=1/tauS=0/rho=0/eta=1/w=3", 855, 960, 0, 0, 896, 0, 0, 19200, 0, "14d088cfb76800381ee91dc5ad037b9cee4fb1b6d270a2562f47ad705b4b6cd3"},
	{"Q4/virtual-cut-through/sat=true/mu=1/tauS=100/rho=0/eta=1/w=1", 2355, 960, 0, 0, 896, 0, 0, 19200, 0, "c1f7f0d210465229852f18d1661ec2ba82b3eb2f418da3ed0b0ceafdfd27b9f5"},
	{"Q4/virtual-cut-through/sat=true/mu=1/tauS=100/rho=0.2/eta=2/w=3", 4877, 750, 0, 0, 686, 0, 0, 14400, 30, "b6cd7951ab6728b52fde58c24108bca1c933ecb3a30bcd7498115ed384955e00"},
	{"Q4/virtual-cut-through/sat=true/mu=2/tauS=0/rho=0.2/eta=2/w=1", 2576, 750, 0, 0, 686, 0, 0, 28800, 30, "8b4e5f68c006c9860880471b3648052dc21ce686b50311d7dd74101dd3c14a36"},
	{"Q4/virtual-cut-through/sat=true/mu=2/tauS=100/rho=0.2/eta=1/w=3", 2818, 960, 0, 0, 896, 0, 0, 38400, 0, "af9b8103c0697ff3d954920406f29de024cc4ff0e02f609c25dcd7956779634a"},
	{"Q4/virtual-cut-through/sat=true/mu=3/tauS=0/rho=0.2/eta=1/w=1", 1830, 960, 0, 0, 896, 0, 0, 57600, 0, "ce85aa9e794a17dd649f846d24a3df1edbb3e5e947cbc872c666aae8808fcbef"},
	{"Q4/virtual-cut-through/sat=true/mu=3/tauS=100/rho=0/eta=2/w=3", 5910, 960, 0, 0, 896, 0, 0, 57600, 0, "0b03d9d6cfe5f8ad942181d5341d26aee4fc4753174588aaa6a9aff488084abe"},
	{"Q4/store-and-forward/sat=false/mu=1/tauS=0/rho=0/eta=2/w=1", 600, 960, 0, 0, 896, 0, 0, 19200, 0, "ac2ffda4338e787eef62886eabf08fbac47476d04f87de698c19f004a1642d5b"},
	{"Q4/store-and-forward/sat=false/mu=1/tauS=100/rho=0/eta=1/w=3", 1800, 960, 0, 0, 896, 0, 0, 19200, 0, "9de9b35d51d46b455c5a60219d7e1917ee2b5da9a4ce33ae2f8491a8dbe2c4a1"},
	{"Q4/store-and-forward/sat=false/mu=2/tauS=0/rho=0/eta=1/w=1", 600, 960, 0, 0, 896, 0, 0, 38400, 0, "55f6a00d499ad8798003fb200c54c90590da6effec027c7e3ba38a5c04f96a5a"},
	{"Q4/store-and-forward/sat=false/mu=2/tauS=0/rho=0.2/eta=2/w=3", 2012, 750, 77, 0, 686, 0, 137, 28800, 30, "5bc0d76bef77eb38a6c886fecd58db02930eb2bfc2232db417f588125c120976"},
	{"Q4/store-and-forward/sat=false/mu=2/tauS=100/rho=0.2/eta=2/w=1", 4799, 750, 1, 0, 686, 0, 133, 28800, 30, "9a0b98add5f6af93f7430f638b17e549980155738d7e9964e3a944c7eb949e40"},
	{"Q4/store-and-forward/sat=false/mu=3/tauS=0/rho=0.2/eta=1/w=3", 1797, 960, 401, 0, 896, 0, 200, 57600, 0, "dfcae2b98dac06f50b40340a899e5e9bb22289a5b77f16c793f991b24c83686c"},
	{"Q4/store-and-forward/sat=false/mu=3/tauS=100/rho=0.2/eta=1/w=1", 2939, 960, 67, 0, 896, 0, 193, 57600, 0, "9b0b7200abb6740a9dcbd55f41f045e336ea6625e6603f0228965dc0c31d81d9"},
	{"Q4/store-and-forward/sat=true/mu=1/tauS=0/rho=0/eta=2/w=3", 1710, 960, 0, 0, 896, 0, 0, 19200, 0, "cdfdaee78810958cc46f54653586e67db8cc2c37fd32bb16c821327a279e3449"},
	{"Q4/store-and-forward/sat=true/mu=1/tauS=100/rho=0/eta=2/w=1", 4710, 960, 0, 0, 896, 0, 0, 19200, 0, "b442e09500a2608286f4c4ee694b30a30d3926cfd6a31c9477d6f0c645a5b6d3"},
	{"Q4/store-and-forward/sat=true/mu=2/tauS=0/rho=0/eta=1/w=3", 1155, 960, 0, 0, 896, 0, 0, 38400, 0, "a0e8a06ecca60a8e30a49c93f4968608dfa6ab86defb60a093b42e541d36ca85"},
	{"Q4/store-and-forward/sat=true/mu=2/tauS=100/rho=0/eta=1/w=1", 2655, 960, 0, 0, 896, 0, 0, 38400, 0, "3448303ff46be23d470d1b0b0fcd2efb44ce1bf053aa26625303bc91543f986e"},
	{"Q4/store-and-forward/sat=true/mu=2/tauS=100/rho=0.2/eta=2/w=3", 5557, 750, 0, 0, 686, 0, 0, 28800, 30, "30c7d43629c1c31e1898ec502087c67ab0f68b2c56bf26f11c148692fdb25673"},
	{"Q4/store-and-forward/sat=true/mu=3/tauS=0/rho=0.2/eta=2/w=1", 3283, 750, 0, 0, 686, 0, 0, 43200, 30, "ac0b96d6ee26d692bad6731a235e22eebfc8a87f5846f1d0b1bee04ac0e84e43"},
	{"Q4/store-and-forward/sat=true/mu=3/tauS=100/rho=0.2/eta=1/w=3", 3221, 960, 0, 0, 896, 0, 0, 57600, 0, "9256e0c8114fd49fb77c7e7c56fe681e9ea5d556fbf6514f91490cd86778840c"},
	{"Q4/wormhole/sat=false/mu=1/tauS=0/rho=0.2/eta=1/w=1", 905, 960, 411, 384, 0, 512, 166, 19200, 0, "ace95bd76ae9ab69a2b9c28ac46ba69bebdded969c2da49ba7845095d021acad"},
	{"Q4/wormhole/sat=false/mu=1/tauS=100/rho=0/eta=2/w=3", 800, 960, 0, 896, 0, 0, 0, 19200, 0, "31ec925a9d0f30154c9e6dd7352c6d69413bd6b4704e8425f7c81f0646d8902d"},
	{"Q4/wormhole/sat=false/mu=2/tauS=0/rho=0/eta=2/w=1", 640, 960, 0, 896, 0, 0, 0, 38400, 0, "cbabb719139310bac804aacfd5d4dd38a5d6173e177e1b60f1cf23b06429bbaf"},
	{"Q4/wormhole/sat=false/mu=2/tauS=100/rho=0/eta=1/w=3", 1218, 960, 896, 0, 0, 896, 0, 38400, 0, "d381c877d27e507c320a5981daf25148167e29ad8cfb81c1a0f696c506ef2dad"},
	{"Q4/wormhole/sat=false/mu=3/tauS=0/rho=0/eta=1/w=1", 1418, 960, 896, 0, 0, 896, 0, 57600, 0, "1e54ba7f910257d3d21bbcff1ab49f2544aa21a915009e6425d432acb4459d1c"},
	{"Q4/wormhole/sat=false/mu=3/tauS=0/rho=0.2/eta=2/w=3", 2117, 750, 240, 359, 0, 327, 155, 43200, 30, "214e33b08f722660d89b80ad6dc359a394e23daeffcbcea00d323adbaf3b2153"},
	{"Q4/wormhole/sat=false/mu=3/tauS=100/rho=0.2/eta=2/w=1", 2095, 750, 221, 378, 0, 308, 146, 43200, 30, "d8c323503132d4c947a0220c89cf2ea0a7c1cc74fdf171604f31ba87cdc3aee0"},
	{"Q4/wormhole/sat=true/mu=1/tauS=0/rho=0.2/eta=1/w=3", 1003, 960, 0, 0, 896, 0, 0, 19200, 0, "b2d6f15d4894f3e0a7724c53ea105a8313166c1f493fed2d830c4e34207ebd62"},
	{"Q4/wormhole/sat=true/mu=1/tauS=100/rho=0.2/eta=1/w=1", 2442, 960, 0, 0, 896, 0, 0, 19200, 0, "15a252649c480ad31325845f31ecb0b1c50d7ce8cd865b042f0701314c48117f"},
	{"Q4/wormhole/sat=true/mu=2/tauS=0/rho=0/eta=2/w=3", 2310, 960, 0, 0, 896, 0, 0, 38400, 0, "dda9621ac2abeb2883d2d00a86091e71fca0782f9a9b0b54e9e11cf4261d6c71"},
	{"Q4/wormhole/sat=true/mu=2/tauS=100/rho=0/eta=2/w=1", 5310, 960, 0, 0, 896, 0, 0, 38400, 0, "71966d2f49b86d636d6b6cff42b91e9261c914769584aa2964dcd3de132aa526"},
	{"Q4/wormhole/sat=true/mu=3/tauS=0/rho=0/eta=1/w=3", 1455, 960, 0, 0, 896, 0, 0, 57600, 0, "57ace530983f5028463a079f0203582c908054b87211241f67cb1eb9700eacbf"},
	{"Q4/wormhole/sat=true/mu=3/tauS=100/rho=0/eta=1/w=1", 2955, 960, 0, 0, 896, 0, 0, 57600, 0, "18a46350bf280904d23df8fbc4682902bd5868e9131e28377a1b9abee6067f00"},
	{"Q4/wormhole/sat=true/mu=3/tauS=100/rho=0.2/eta=2/w=3", 6359, 750, 0, 0, 686, 0, 0, 43200, 30, "5d7f51e4ac1173917ebd02e63c7e5b9867ba0ea80c0252bec2b5ed5c4ab41d62"},
	{"Q5/virtual-cut-through/sat=false/mu=1/tauS=0/rho=0.2/eta=2/w=1", 2573, 4027, 1078, 1921, 989, 0, 1111, 59520, 62, "0e2eed66d6fb55c9eee5159fa9cb9531fa1d26151f920c9c5fff74cae3b3f5ec"},
	{"Q5/virtual-cut-through/sat=false/mu=1/tauS=100/rho=0.2/eta=1/w=3", 2884, 5435, 1293, 2373, 1467, 0, 1132, 79360, 0, "5d3b851b880b734a92b4ed76c0aea87f3933e00576b1c0aa869643759c3b211a"},
	{"Q5/virtual-cut-through/sat=false/mu=2/tauS=0/rho=0.2/eta=1/w=1", 2655, 6460, 3952, 1348, 2492, 0, 1399, 158720, 0, "e3087274dd8fb0d99d52ab312d91af19eca771103b5cb66cd1626bf15514903b"},
	{"Q5/virtual-cut-through/sat=false/mu=2/tauS=100/rho=0/eta=2/w=3", 1480, 3968, 0, 3840, 0, 0, 0, 158720, 0, "405034db0c92f96d8237d4cef3e76302b8c313500a7f892b674146f71a7e3b3a"},
	{"Q5/virtual-cut-through/sat=false/mu=3/tauS=0/rho=0/eta=2/w=1", 2520, 5888, 1920, 1920, 1920, 0, 0, 238080, 0, "f1ceaaeafd2277eeaa07a6a2ad22c2cadc48093e58c66401ad8be9f471b8a183"},
	{"Q5/virtual-cut-through/sat=false/mu=3/tauS=100/rho=0/eta=1/w=3", 4960, 7808, 3840, 0, 3840, 0, 0, 238080, 0, "2957c35e24168e620baf87f8a418c21a4f7c6e30ea02f8bea44b40de83271c4b"},
	{"Q5/virtual-cut-through/sat=true/mu=1/tauS=0/rho=0/eta=1/w=1", 1767, 3968, 0, 0, 3840, 0, 0, 79360, 0, "aee767e200989f6934212f1304863ed5eee08af6aba368750b8431f27ee29c66"},
	{"Q5/virtual-cut-through/sat=true/mu=1/tauS=0/rho=0.2/eta=2/w=3", 3764, 3038, 0, 0, 2910, 0, 0, 59520, 62, "d23480ee4213d3bafa964ecab441e68706f16893d100f9b58b65af2ed8db059b"},
	{"Q5/virtual-cut-through/sat=true/mu=1/tauS=100/rho=0.2/eta=2/w=1", 9972, 3038, 0, 0, 2910, 0, 0, 59520, 62, "d1ddc711e7179261fe0853099fd48e5e73ddcc31d0ac7eac7dfaee654823af18"},
	{"Q5/virtual-cut-through/sat=true/mu=2/tauS=0/rho=0.2/eta=1/w=3", 2864, 3968, 0, 0, 3840, 0, 0, 158720, 0, "fd42784fd1328df3ac3162a4e0ff91971443e43a951d24786a170867f6932fbf"},
	{"Q5/virtual-cut-through/sat=true/mu=2/tauS=100/rho=0.2/eta=1/w=1", 5845, 3968, 0, 0, 3840, 0, 0, 158720, 0, "645825f68e829503e15bf5826feba29aee951ee80e437e82bc710e5b229b6013"},
	{"Q5/virtual-cut-through/sat=true/mu=3/tauS=0/rho=0/eta=2/w=3", 6014, 3968, 0, 0, 3840, 0, 0, 238080, 0, "2d7894deb1e2ae209878a4ad91975cda1fef287e1275ff77f2dc12a42b9ce201"},
	{"Q5/virtual-cut-through/sat=true/mu=3/tauS=100/rho=0/eta=2/w=1", 12214, 3968, 0, 0, 3840, 0, 0, 238080, 0, "9f685cf9fbd004de1ef29f35972ca7382360485fd697522c8da195aa4d3bb35c"},
	{"Q5/store-and-forward/sat=false/mu=1/tauS=0/rho=0/eta=1/w=3", 620, 3968, 0, 0, 3840, 0, 0, 79360, 0, "cf41d7dab5ba0d985dde49078b1d73c8637867d3d9e3f890729ca5454cac1c9c"},
	{"Q5/store-and-forward/sat=false/mu=1/tauS=100/rho=0/eta=1/w=1", 3720, 3968, 0, 0, 3840, 0, 0, 79360, 0, "4bbaf9b1351603567ad3e3799798b2eb93c77c19bff84bd1da03143d483f1582"},
	{"Q5/store-and-forward/sat=false/mu=1/tauS=100/rho=0.2/eta=2/w=3", 8442, 3038, 12, 0, 2910, 0, 617, 59520, 62, "2d72a2ed2dd6b72c96e96a36925b5f2d26b8e1612080aadbaaa4e2b51f85e406"},
	{"Q5/store-and-forward/sat=false/mu=2/tauS=0/rho=0.2/eta=2/w=1", 4015, 3968, 555, 0, 3840, 0, 765, 158720, 0, "c2874678f9338ff93f3e0bae706d5b0c167cfc7b07a41c2c007569a894c5f0c9"},
	{"Q5/store-and-forward/sat=false/mu=2/tauS=100/rho=0.2/eta=1/w=3", 5211, 3968, 311, 0, 3840, 0, 801, 158720, 0, "2b912e90c2da3a68449302278a0ae0dc91c9992b9bb74e83a390e6f746ae9bb9"},
	{"Q5/store-and-forward/sat=false/mu=3/tauS=0/rho=0.2/eta=1/w=1", 3626, 3968, 1716, 0, 3840, 0, 762, 238080, 0, "e13ffbf7add680ccda85d264e8440708ac349eb330a2b2c0e8688d589c6b7104"},
	{"Q5/store-and-forward/sat=false/mu=3/tauS=100/rho=0/eta=2/w=3", 9920, 3968, 0, 0, 3840, 0, 0, 238080, 0, "d5e192b9ccecffcd7aa0f730be6b8e280ffbaab234cf74551e75810b8a91d1d0"},
	{"Q5/store-and-forward/sat=true/mu=1/tauS=0/rho=0/eta=2/w=1", 3534, 3968, 0, 0, 3840, 0, 0, 79360, 0, "1f6ad53e05c1b98e250ccc0760543e85cd1a8dc96b9866a67da2ca6c6fe00367"},
	{"Q5/store-and-forward/sat=true/mu=1/tauS=100/rho=0/eta=1/w=3", 4867, 3968, 0, 0, 3840, 0, 0, 79360, 0, "49c710d3f1dc45d38f67af84a6b74eaf5127f02ac90798f1af1364a52209bd87"},
	{"Q5/store-and-forward/sat=true/mu=2/tauS=0/rho=0/eta=1/w=1", 2387, 3968, 0, 0, 3840, 0, 0, 158720, 0, "98300e2e0122bae653f5554e93763c75489069c8c29c6bbe354fe8714cbefc87"},
	{"Q5/store-and-forward/sat=true/mu=2/tauS=0/rho=0.2/eta=2/w=3", 5319, 3038, 0, 0, 2910, 0, 0, 119040, 62, "4614d68018079d8cebd316727cc567486c52d5427e0191dbb9893166fc184623"},
	{"Q5/store-and-forward/sat=true/mu=2/tauS=100/rho=0.2/eta=2/w=1", 11463, 3038, 0, 0, 2910, 0, 0, 119040, 62, "9e7273265d098c6ccba51f05783df4d24fe8effa3513f57035598364b416cafe"},
	{"Q5/store-and-forward/sat=true/mu=3/tauS=0/rho=0.2/eta=1/w=3", 3714, 3968, 0, 0, 3840, 0, 0, 238080, 0, "50348e3750ca2b6797a7ad98aee5c2af537041a6a0ac13ba8feb83718537b5df"},
	{"Q5/store-and-forward/sat=true/mu=3/tauS=100/rho=0.2/eta=1/w=1", 6508, 3968, 0, 0, 3840, 0, 0, 238080, 0, "6b831214506b8ef431af3e0915ec04bbbb1cdc18d876a618a37464174c3c6058"},
	{"Q5/wormhole/sat=false/mu=1/tauS=0/rho=0/eta=2/w=3", 1240, 3968, 0, 3840, 0, 0, 0, 79360, 0, "b345a0d13ca77f283ed287dc515d4fafac20e2fdf8160a08086169bee0128155"},
	{"Q5/wormhole/sat=false/mu=1/tauS=100/rho=0/eta=2/w=1", 1440, 3968, 0, 3840, 0, 0, 0, 79360, 0, "814b501eb7874a005e48fb7f3f2cfe9e03e75bea0a35e498b8931f73511b9898"},
	{"Q5/wormhole/sat=false/mu=2/tauS=0/rho=0/eta=1/w=3", 2350, 3968, 3840, 0, 0, 3840, 0, 158720, 0, "17da395802e2a71177aac12bcc7fb63769bdb73ba6b293ef4a6b354da9cc464c"},
	{"Q5/wormhole/sat=false/mu=2/tauS=100/rho=0/eta=1/w=1", 2450, 3968, 3840, 0, 0, 3840, 0, 158720, 0, "7457e3dd7614c92d50323d7c698d2b351c3421a92cc4bac2ee23b7dc32e7e116"},
	{"Q5/wormhole/sat=false/mu=2/tauS=100/rho=0.2/eta=2/w=3", 3525, 3038, 736, 1754, 0, 1156, 586, 119040, 62, "6273fd29355aeb08a77b6447057d2b329528867d5f2febadbd2019003d9edc49"},
	{"Q5/wormhole/sat=false/mu=3/tauS=0/rho=0.2/eta=2/w=1", 4073, 3968, 1399, 1990, 0, 1850, 738, 238080, 0, "8902d99706deba614a8297bb75d760aac288768fd72abf16a31108f80acce2b8"},
	{"Q5/wormhole/sat=false/mu=3/tauS=100/rho=0.2/eta=1/w=3", 3536, 3968, 2864, 791, 0, 3049, 794, 238080, 0, "d20a354b8b3e1ea22dd1b75be96aced02e9d319a51f6d4410c6fbeb3213c2617"},
	{"Q5/wormhole/sat=true/mu=1/tauS=0/rho=0.2/eta=1/w=1", 2023, 3968, 0, 0, 3840, 0, 0, 79360, 0, "931afe4e865c90b1fba0bcbd48ecd167e74811de753fd5dec0b59902f6af0ffc"},
	{"Q5/wormhole/sat=true/mu=1/tauS=100/rho=0/eta=2/w=3", 9734, 3968, 0, 0, 3840, 0, 0, 79360, 0, "0193e5f3c2771389ec29e2a0276094bc89eb9d8c94e522d8994c58d17601f76c"},
	{"Q5/wormhole/sat=true/mu=2/tauS=0/rho=0/eta=2/w=1", 4774, 3968, 0, 0, 3840, 0, 0, 158720, 0, "fab17015ee2ad2811633e4d15637de83de19125e7feb004db478d38ea2d4bca2"},
	{"Q5/wormhole/sat=true/mu=2/tauS=100/rho=0/eta=1/w=3", 5487, 3968, 0, 0, 3840, 0, 0, 158720, 0, "8a1717c1076b9623d72b2395067ce56ad9bc62c50e988c4b071cdd1ef7f95068"},
	{"Q5/wormhole/sat=true/mu=3/tauS=0/rho=0/eta=1/w=1", 3007, 3968, 0, 0, 3840, 0, 0, 238080, 0, "22cbfa89f1e17381040a82a75c50c19396add81a222d534ae3db1771b197c9d6"},
	{"Q5/wormhole/sat=true/mu=3/tauS=0/rho=0.2/eta=2/w=3", 6726, 3038, 0, 0, 2910, 0, 0, 178560, 62, "3618401b6e313cd6afa1bb4ad5bdd94f478aa36e515219f5929bc65e64c4c9ad"},
	{"Q5/wormhole/sat=true/mu=3/tauS=100/rho=0.2/eta=2/w=1", 13031, 3038, 0, 0, 2910, 0, 0, 178560, 62, "f2b5087ea0e0cdfef1d0746eb53e8a703ad3d05e527ee92e873ffc07a8e4a5f9"},
	{"SQ4/virtual-cut-through/sat=false/mu=1/tauS=0/rho=0.2/eta=1/w=3", 953, 1453, 782, 403, 493, 0, 390, 19200, 0, "d392f3f0c43595c9fa84efc1b14ba7609a57e2cbbfd38aeeb249b364b3641c90"},
	{"SQ4/virtual-cut-through/sat=false/mu=1/tauS=100/rho=0.2/eta=1/w=1", 1494, 1294, 261, 562, 334, 0, 286, 19200, 0, "4aa572f1a6a401ced166b8f3cec93ff1f239848e427454d2451810177a56e8cf"},
	{"SQ4/virtual-cut-through/sat=false/mu=2/tauS=0/rho=0/eta=2/w=3", 640, 960, 0, 896, 0, 0, 0, 38400, 0, "905f5cc9a820071a8bcf201f0a9361653990c8a44f1f7625491644a933167e66"},
	{"SQ4/virtual-cut-through/sat=false/mu=2/tauS=100/rho=0/eta=2/w=1", 840, 960, 0, 896, 0, 0, 0, 38400, 0, "a7697744367d003c8b3835965369208e7c89aac8623523069752c2e00a87f98f"},
	{"SQ4/virtual-cut-through/sat=false/mu=3/tauS=0/rho=0/eta=1/w=3", 900, 1856, 896, 0, 896, 0, 0, 57600, 0, "7ace9b587573347573ce3ee6b26fc7f8fc16112cf536af5986d20717b78fdd8b"},
	{"SQ4/virtual-cut-through/sat=false/mu=3/tauS=100/rho=0/eta=1/w=1", 2400, 1856, 896, 0, 896, 0, 0, 57600, 0, "fdc6ef2b14f0bc4cbd68659f5ca62e91c1b5d4587fefee8b8e2a876fcaa0a2a4"},
	{"SQ4/virtual-cut-through/sat=false/mu=3/tauS=100/rho=0.2/eta=2/w=3", 3504, 1011, 211, 425, 261, 0, 211, 43200, 30, "aefd6e52e742c32561f1cdcec9a8fcdc7bd2f52d5998c0784f78c74748380e85"},
	{"SQ4/virtual-cut-through/sat=true/mu=1/tauS=0/rho=0.2/eta=2/w=1", 1849, 750, 0, 0, 686, 0, 0, 14400, 30, "ce16c37adb31c1bc0a5c0190f21ce85d84bb4a2da442c8d7a069240586554df5"},
	{"SQ4/virtual-cut-through/sat=true/mu=1/tauS=100/rho=0.2/eta=1/w=3", 2453, 960, 0, 0, 896, 0, 0, 19200, 0, "a48fef0548ddbc240f5c65373b3d28136c62e778dd308de650f6745792e11695"},
	{"SQ4/virtual-cut-through/sat=true/mu=2/tauS=0/rho=0.2/eta=1/w=1", 1348, 960, 0, 0, 896, 0, 0, 38400, 0, "ad3899c08a1730486ede36580997a3e86e5f759b1d192dfe454da400648ee949"},
	{"SQ4/virtual-cut-through/sat=true/mu=2/tauS=100/rho=0/eta=2/w=3", 5310, 960, 0, 0, 896, 0, 0, 38400, 0, "a0c2c6cdfda49d17bc859547974393dda0eed2f2f11c8f775296203c4bc8d5a6"},
	{"SQ4/virtual-cut-through/sat=true/mu=3/tauS=0/rho=0/eta=2/w=1", 2910, 960, 0, 0, 896, 0, 0, 57600, 0, "953372b2641d5b3945dfce38a4e82b071eef01e4693cdbc86465a517a8881cd6"},
	{"SQ4/virtual-cut-through/sat=true/mu=3/tauS=100/rho=0/eta=1/w=3", 2955, 960, 0, 0, 896, 0, 0, 57600, 0, "0851767bd523c9896cf5dd8a60d9a5572364a2b21136671997e0515a436abdb7"},
	{"SQ4/store-and-forward/sat=false/mu=1/tauS=0/rho=0/eta=1/w=1", 300, 960, 0, 0, 896, 0, 0, 19200, 0, "1da430fbdad9abbf6dceadca3c5458399a2e9318da7678e5824f49cbe7ee201c"},
	{"SQ4/store-and-forward/sat=false/mu=1/tauS=0/rho=0.2/eta=2/w=3", 1306, 750, 108, 0, 686, 0, 135, 14400, 30, "531032b6514bc4a45a2a1f4c0e76522520aa9aa78ce9982628af05fe0317cc02"},
	{"SQ4/store-and-forward/sat=false/mu=1/tauS=100/rho=0.2/eta=2/w=1", 4269, 750, 1, 0, 686, 0, 149, 14400, 30, "53b748d513cc0d11e87d463c7dcd86e303691dc68a7fff6143cad2f6b9b12d55"},
	{"SQ4/store-and-forward/sat=false/mu=2/tauS=0/rho=0.2/eta=1/w=3", 1300, 960, 389, 0, 896, 0, 173, 38400, 0, "e2955c5276f64ef7c6fa1a5caf0c40f4603240fe2c46408b1c635f98864d2b85"},
	{"SQ4/store-and-forward/sat=false/mu=2/tauS=100/rho=0.2/eta=1/w=1", 2513, 960, 53, 0, 896, 0, 191, 38400, 0, "fdad86d355bcb8cbcd35e8e16c32fb7035619cf9515da6e8845d0e15c92c0392"},
	{"SQ4/store-and-forward/sat=false/mu=3/tauS=0/rho=0/eta=2/w=3", 1800, 960, 0, 0, 896, 0, 0, 57600, 0, "b0965d1edadb7e472016804066d726d184a82c99c21622a891bf0d9ff06421fa"},
	{"SQ4/store-and-forward/sat=false/mu=3/tauS=100/rho=0/eta=2/w=1", 4800, 960, 0, 0, 896, 0, 0, 57600, 0, "c2a468558c32f280445cb0649a3a8343a1a7b1274865a29f3122bdda252c19ec"},
	{"SQ4/store-and-forward/sat=true/mu=1/tauS=0/rho=0/eta=1/w=3", 855, 960, 0, 0, 896, 0, 0, 19200, 0, "a91a9e8a543a6b543a397f8ca5f2d24e6b184e339e908b958b694d9f605811ad"},
	{"SQ4/store-and-forward/sat=true/mu=1/tauS=100/rho=0/eta=1/w=1", 2355, 960, 0, 0, 896, 0, 0, 19200, 0, "5e9354a31ef869cbb37bc56c1c58867d949f1f539119d6896b01bda22bca59ce"},
	{"SQ4/store-and-forward/sat=true/mu=1/tauS=100/rho=0.2/eta=2/w=3", 4837, 750, 0, 0, 686, 0, 0, 14400, 30, "e84e8fc1d5d91c92fb8eb7cf90cdefcfa2468d244c2c3110ba258672885f2c91"},
	{"SQ4/store-and-forward/sat=true/mu=2/tauS=0/rho=0.2/eta=2/w=1", 2598, 750, 0, 0, 686, 0, 0, 28800, 30, "0ac27e0cfb1c520e0a0fb2159910fe135d51d45b46a5981f0565f15699a2498d"},
	{"SQ4/store-and-forward/sat=true/mu=2/tauS=100/rho=0.2/eta=1/w=3", 2825, 960, 0, 0, 896, 0, 0, 38400, 0, "f696280efb211a92dcfe03729467d1a88560d83bf7ccad8ea194480c11073cb4"},
	{"SQ4/store-and-forward/sat=true/mu=3/tauS=0/rho=0.2/eta=1/w=1", 1813, 960, 0, 0, 896, 0, 0, 57600, 0, "3f89e0fb17e05cad500e111e6ab1d616d7e6601e8764f7dd1e9bb818d014d2e6"},
	{"SQ4/store-and-forward/sat=true/mu=3/tauS=100/rho=0/eta=2/w=3", 5910, 960, 0, 0, 896, 0, 0, 57600, 0, "35b912e3139f648d5c15f6dcb500c2b67987e145d7b781433b6a129fd840811c"},
	{"SQ4/wormhole/sat=false/mu=1/tauS=0/rho=0/eta=2/w=1", 600, 960, 0, 896, 0, 0, 0, 19200, 0, "23518d488b7cb6f5420d135f1a8f3fcb072b8ec6542b2d854dcc1b0bc2361268"},
	{"SQ4/wormhole/sat=false/mu=1/tauS=100/rho=0/eta=1/w=3", 400, 960, 0, 896, 0, 0, 0, 19200, 0, "a716be6f56800dd01f0cdfe3366f91530aca54aadb5095cfecbfab0a9a677519"},
	{"SQ4/wormhole/sat=false/mu=2/tauS=0/rho=0/eta=1/w=1", 1118, 960, 896, 0, 0, 896, 0, 38400, 0, "e5717ede8030ada4e638e76be1848310c172fe425d1fc98dffb887f7dba64903"},
	{"SQ4/wormhole/sat=false/mu=2/tauS=0/rho=0.2/eta=2/w=3", 1608, 750, 154, 422, 0, 264, 144, 28800, 30, "9b11084783f5eb7ce48ac13c759ce46fff7bd097119cb17b86f5e92beff5c57a"},
	{"SQ4/wormhole/sat=false/mu=2/tauS=100/rho=0.2/eta=2/w=1", 1971, 750, 161, 418, 0, 268, 150, 28800, 30, "e97ef1496bdec32e7fbeebee5fe9efe24a51568d69792279b6b778c6daaf490b"},
	{"SQ4/wormhole/sat=false/mu=3/tauS=0/rho=0.2/eta=1/w=3", 1619, 960, 722, 149, 0, 747, 152, 57600, 0, "c0fd307631f91e7158db082dfa02bd52843e2699ae1a19a25c6f966e2b70e1a3"},
	{"SQ4/wormhole/sat=false/mu=3/tauS=100/rho=0.2/eta=1/w=1", 1815, 960, 706, 147, 0, 749, 212, 57600, 0, "7baf8d374eba7f381a7b6739efb857cd12378ef546aa184c7dd3d5d3fbb16658"},
	{"SQ4/wormhole/sat=true/mu=1/tauS=0/rho=0/eta=2/w=3", 1710, 960, 0, 0, 896, 0, 0, 19200, 0, "79fc9c518920cb92cc117f9f1ceb45fac98d608ade3b7e1ea69263a9b8e719db"},
	{"SQ4/wormhole/sat=true/mu=1/tauS=100/rho=0/eta=2/w=1", 4710, 960, 0, 0, 896, 0, 0, 19200, 0, "162f275ee7519767b9ff640d1d28c9b5cd46e66a03e3a2024cdca1112adb5af7"},
	{"SQ4/wormhole/sat=true/mu=2/tauS=0/rho=0/eta=1/w=3", 1155, 960, 0, 0, 896, 0, 0, 38400, 0, "cdbddbc2f89450bf2168eaf86ef9bcf135c83f6e3688d3d40dc6a540b0880bcc"},
	{"SQ4/wormhole/sat=true/mu=2/tauS=100/rho=0/eta=1/w=1", 2655, 960, 0, 0, 896, 0, 0, 38400, 0, "055f769a143de96a0038bb2025c770d42c7fd6e89465fbbcbde5e365ccbd17a6"},
	{"SQ4/wormhole/sat=true/mu=2/tauS=100/rho=0.2/eta=2/w=3", 5618, 750, 0, 0, 686, 0, 0, 28800, 30, "8a9f7cdb67de6cffae39ee7a5ae2ca45f745b4379804cbfebb97eddcbd7f527a"},
	{"SQ4/wormhole/sat=true/mu=3/tauS=0/rho=0.2/eta=2/w=1", 3394, 750, 0, 0, 686, 0, 0, 43200, 30, "5e37d3bef32713d197bfe0cb20698ba57ac10dbb8e6c5dae9b5f4f11f00df689"},
	{"SQ4/wormhole/sat=true/mu=3/tauS=100/rho=0.2/eta=1/w=3", 3190, 960, 0, 0, 896, 0, 0, 57600, 0, "386cb7c9881f7e246f6934a21a08a66d3eded9bb707a5213b51e651f6e78115d"},
	{"H3/virtual-cut-through/sat=false/mu=1/tauS=0/rho=0.2/eta=1/w=1", 1171, 3169, 1788, 821, 1117, 0, 815, 41040, 0, "c09715b17ad92b73a4fc0e56d9ba6aae5e507b64b2120b191176bdbc16f5fe76"},
	{"H3/virtual-cut-through/sat=false/mu=1/tauS=100/rho=0/eta=2/w=3", 920, 2052, 0, 1938, 0, 0, 0, 41040, 0, "c1243f4758bd77021ab9258fff4013b1d92a0fbdeb996106d5901757c8af9661"},
	{"H3/virtual-cut-through/sat=false/mu=2/tauS=0/rho=0/eta=2/w=1", 780, 2106, 54, 1884, 54, 0, 0, 82080, 0, "8c429502f79bdfbcaf1646f53e1ff462bb286366c3ec4546d7750153111d0883"},
	{"H3/virtual-cut-through/sat=false/mu=2/tauS=100/rho=0/eta=1/w=3", 2520, 3990, 1938, 0, 1938, 0, 0, 82080, 0, "7c3369ebe18094fabfe11eac3aac2952f8d07f69b404344729dd1b85e0612675"},
	{"H3/virtual-cut-through/sat=false/mu=3/tauS=0/rho=0/eta=1/w=1", 1080, 3990, 1938, 0, 1938, 0, 0, 123120, 0, "f28184a55495e8bd5b115a7c47481ed29d6edc2d6f665e7310a0b1faef8d0f91"},
	{"H3/virtual-cut-through/sat=false/mu=3/tauS=0/rho=0.2/eta=2/w=3", 2378, 2508, 798, 870, 762, 0, 492, 102600, 36, "a222856f50111e347a4965244525e75d2e7efc0a9258402a4f31b1255d57762e"},
	{"H3/virtual-cut-through/sat=false/mu=3/tauS=100/rho=0.2/eta=2/w=1", 4151, 2329, 453, 1049, 583, 0, 484, 102600, 36, "eeb7ef6c10ef5bbb975b729059d450af7f22f71913ff05ca21f3b020f54d5503"},
	{"H3/virtual-cut-through/sat=true/mu=1/tauS=0/rho=0.2/eta=1/w=3", 1163, 2052, 0, 0, 1938, 0, 0, 41040, 0, "6161ccbeb468058a99c5a97a00a687e96dbfd2b189d812a4ad575ac3112590aa"},
	{"H3/virtual-cut-through/sat=true/mu=1/tauS=100/rho=0.2/eta=1/w=1", 2957, 2052, 0, 0, 1938, 0, 0, 41040, 0, "66c1886db58596e7e449ef0c30cc11b08a6a317c40fe2580319810b56abbf0a9"},
	{"H3/virtual-cut-through/sat=true/mu=2/tauS=0/rho=0/eta=2/w=3", 2772, 2052, 0, 0, 1938, 0, 0, 82080, 0, "5d6dd5c7aa45cbdd595bbca3b3f1a4d879b4d5b848c8d9046748eafec1f92572"},
	{"H3/virtual-cut-through/sat=true/mu=2/tauS=100/rho=0/eta=2/w=1", 6372, 2052, 0, 0, 1938, 0, 0, 82080, 0, "153bc6150f8b9df91e7a294f2089647e6fa2234cc65a17f56e2ef3e88f99f6f1"},
	{"H3/virtual-cut-through/sat=true/mu=3/tauS=0/rho=0/eta=1/w=3", 1746, 2052, 0, 0, 1938, 0, 0, 123120, 0, "8d7b0c5bba4166a08d711c8f6e5fd530f285bf41702165f14bd206b241c449b7"},
	{"H3/virtual-cut-through/sat=true/mu=3/tauS=100/rho=0/eta=1/w=1", 3546, 2052, 0, 0, 1938, 0, 0, 123120, 0, "401cb794a864b602fe2ab9488c6ebceabf90c370a617178b3eaa6cfb6f0990ef"},
	{"H3/virtual-cut-through/sat=true/mu=3/tauS=100/rho=0.2/eta=2/w=3", 7631, 1746, 0, 0, 1632, 0, 0, 102600, 36, "c1f7356e384a5b34a51bb0896a9350f10e71628cad8d0e3ae99be7a89b322a31"},
	{"H3/store-and-forward/sat=false/mu=1/tauS=0/rho=0.2/eta=2/w=1", 1570, 1746, 253, 0, 1632, 0, 325, 34200, 36, "8a280da1856d2af300dcfcbca1b15cc975408dc16abf9666e5146270bca19228"},
	{"H3/store-and-forward/sat=false/mu=1/tauS=100/rho=0.2/eta=1/w=3", 2600, 2052, 73, 0, 1938, 0, 435, 41040, 0, "d9874e96fb71d39ac91cd2b161116fce2d8f1fcd7d267178c1664da9a6ba5b7d"},
	{"H3/store-and-forward/sat=false/mu=2/tauS=0/rho=0.2/eta=1/w=1", 1597, 2052, 854, 0, 1938, 0, 385, 82080, 0, "163fe53aca5984068d898e045acb26a073b64531ef30ed462fcc877728db544e"},
	{"H3/store-and-forward/sat=false/mu=2/tauS=100/rho=0/eta=2/w=3", 5040, 2052, 0, 0, 1938, 0, 0, 82080, 0, "12e12d50ecc5e2b098f98213e8a1ed7cedd961261deef3cec0644d13054d6ac8"},
	{"H3/store-and-forward/sat=false/mu=3/tauS=0/rho=0/eta=2/w=1", 2160, 2052, 0, 0, 1938, 0, 0, 123120, 0, "a214a4c51f2cd0292cbac1044763f7c2867314eed8c8483837f2ba4b2c063b00"},
	{"H3/store-and-forward/sat=false/mu=3/tauS=100/rho=0/eta=1/w=3", 2880, 2052, 0, 0, 1938, 0, 0, 123120, 0, "eb083cd22fbd4ff9086e423659565f2c71977dbccdf0fb5f2398a451731b88a2"},
	{"H3/store-and-forward/sat=true/mu=1/tauS=0/rho=0/eta=1/w=1", 1026, 2052, 0, 0, 1938, 0, 0, 41040, 0, "b4d8cf4a612949cca1e30cf7491b2d6e20fb7922d565a47ec8781413f5483fa8"},
	{"H3/store-and-forward/sat=true/mu=1/tauS=0/rho=0.2/eta=2/w=3", 2250, 1746, 0, 0, 1632, 0, 0, 34200, 36, "c76d94f986d8135e07e3e752178ef841a050bd1fd5bc199ae344ba8e92ee1f90"},
	{"H3/store-and-forward/sat=true/mu=1/tauS=100/rho=0.2/eta=2/w=1", 5788, 1746, 0, 0, 1632, 0, 0, 34200, 36, "9992febd0b56cb570845b1a876a3760ec63261150e9d6b719fa32686d0aa147f"},
	{"H3/store-and-forward/sat=true/mu=2/tauS=0/rho=0.2/eta=1/w=3", 1653, 2052, 0, 0, 1938, 0, 0, 82080, 0, "3e0622d6c0e3999d1f45eecc786057060e90d195e9f2076bcf13d46280ae5806"},
	{"H3/store-and-forward/sat=true/mu=2/tauS=100/rho=0.2/eta=1/w=1", 3377, 2052, 0, 0, 1938, 0, 0, 82080, 0, "30d896151a4da77b6fe77b275970a5c592c61fb382d0dd040cf62bd539fecba5"},
	{"H3/store-and-forward/sat=true/mu=3/tauS=0/rho=0/eta=2/w=3", 3492, 2052, 0, 0, 1938, 0, 0, 123120, 0, "db30d68e96e5de93e3f9fb357b63407095e60b2cae6b3059fec368e8f2deb52a"},
	{"H3/store-and-forward/sat=true/mu=3/tauS=100/rho=0/eta=2/w=1", 7092, 2052, 0, 0, 1938, 0, 0, 123120, 0, "d77e19719036d926660b33126ecea7f2348dcd88cc12ef8886e93f613910bfab"},
	{"H3/wormhole/sat=false/mu=1/tauS=0/rho=0/eta=1/w=3", 360, 2052, 0, 1938, 0, 0, 0, 41040, 0, "da03a5783e397b13e6b1c2d63a27a2a8077c0437954af05068f41e85098d6c01"},
	{"H3/wormhole/sat=false/mu=1/tauS=100/rho=0/eta=1/w=1", 460, 2052, 0, 1938, 0, 0, 0, 41040, 0, "8748359df83f962e2d42c674bf5dad61aaf9bdc22d4043cd5c14c9a660d1b65c"},
	{"H3/wormhole/sat=false/mu=1/tauS=100/rho=0.2/eta=2/w=3", 1855, 1746, 282, 1062, 0, 570, 369, 34200, 36, "7fc37e44a77b921e8413c09cc519637453c36bb501fd0ac7d650b6aa8ec5d8eb"},
	{"H3/wormhole/sat=false/mu=2/tauS=0/rho=0.2/eta=2/w=1", 2006, 1746, 385, 977, 0, 655, 369, 68400, 36, "4166fcd0ce4ba480fe5c7d081aaff6f01a8cc2573cf56d2ca5fd5b1faaecd8ab"},
	{"H3/wormhole/sat=false/mu=2/tauS=100/rho=0.2/eta=1/w=3", 1681, 2052, 1345, 492, 0, 1446, 388, 82080, 0, "4f6bee014bda40e16c7119d5b8294e3e13283fa03ed8c020c08f45ab9e580b2a"},
	{"H3/wormhole/sat=false/mu=3/tauS=0/rho=0.2/eta=1/w=1", 2067, 2052, 1590, 271, 0, 1667, 422, 123120, 0, "8eaac4d82bf9e76e4db1025237d519e2b4c3120840fc632f0345d2245e888079"},
	{"H3/wormhole/sat=false/mu=3/tauS=100/rho=0/eta=2/w=3", 1989, 2052, 918, 1020, 0, 918, 0, 123120, 0, "5c6cbee39129ecc671b51c90178826630aad68eb6d1dfb384eba2fd2da9828fe"},
	{"H3/wormhole/sat=true/mu=1/tauS=0/rho=0/eta=2/w=1", 2052, 2052, 0, 0, 1938, 0, 0, 41040, 0, "adfe0f8ee48ccc297be4da15988567819e65163ae3968a88df93650ffab90db2"},
	{"H3/wormhole/sat=true/mu=1/tauS=100/rho=0/eta=1/w=3", 2826, 2052, 0, 0, 1938, 0, 0, 41040, 0, "e9d74dee12eeb4c0563f261fb30af2f6ec0282bff0be4261c8798cfe37804346"},
	{"H3/wormhole/sat=true/mu=2/tauS=0/rho=0/eta=1/w=1", 1386, 2052, 0, 0, 1938, 0, 0, 82080, 0, "9b822d3eb0d1977279bf6a0a6aee3faa2ae0b907146dc046ba603179d1e1a786"},
	{"H3/wormhole/sat=true/mu=2/tauS=0/rho=0.2/eta=2/w=3", 3146, 1746, 0, 0, 1632, 0, 0, 68400, 36, "bf19614288f475deabe4d60a275925247bbceb21b0b8fe95177136d00fb53860"},
	{"H3/wormhole/sat=true/mu=2/tauS=100/rho=0.2/eta=2/w=1", 6680, 1746, 0, 0, 1632, 0, 0, 68400, 36, "24f45f06deac6a2a2e773b16fabee6fc7e06530a15ed186b4eebce4d21b42542"},
	{"H3/wormhole/sat=true/mu=3/tauS=0/rho=0.2/eta=1/w=3", 2189, 2052, 0, 0, 1938, 0, 0, 123120, 0, "54fbca875e2d1971ac76170b93e4b0518b0aa00b34d28dba3e803b16c094ed03"},
	{"H3/wormhole/sat=true/mu=3/tauS=100/rho=0.2/eta=1/w=1", 3820, 2052, 0, 0, 1938, 0, 0, 123120, 0, "c29b29aaede478e7997111e8924f4009c60b3b574dd0ff74c0590b29e1792dac"},
	{"TQ4/virtual-cut-through/sat=false/mu=1/tauS=0/rho=0/eta=2/w=3", 600, 960, 0, 896, 0, 0, 0, 19200, 0, "974455d0ed6f2a1132827e8802c94d311ccd62189d4b2704a20800fd36829958"},
	{"TQ4/virtual-cut-through/sat=false/mu=1/tauS=100/rho=0/eta=2/w=1", 800, 960, 0, 896, 0, 0, 0, 19200, 0, "4a83369285efbfd63187462a5e4f7bf6c7599562e39b9e41c66efa97e5550fa1"},
	{"TQ4/virtual-cut-through/sat=false/mu=2/tauS=0/rho=0/eta=1/w=3", 600, 1856, 896, 0, 896, 0, 0, 38400, 0, "55d34a0dd321f09518c65f9bab16fd86b0ee667384227204894e42ea55f79a4d"},
	{"TQ4/virtual-cut-through/sat=false/mu=2/tauS=100/rho=0/eta=1/w=1", 2100, 1856, 896, 0, 896, 0, 0, 38400, 0, "a85bc07a40cdb4a694056aebf63d6bcf9ffab01411a97e3f1ab34920e417440e"},
	{"TQ4/virtual-cut-through/sat=false/mu=2/tauS=100/rho=0.2/eta=2/w=3", 3044, 945, 101, 491, 195, 0, 178, 28800, 30, "4b888265e7f24e75d44451b1408c2a2d605c76b3be7a69783f5722799270dd2f"},
	{"TQ4/virtual-cut-through/sat=false/mu=3/tauS=0/rho=0.2/eta=2/w=1", 1972, 1067, 309, 369, 317, 0, 233, 43200, 30, "1fc339040c0f68699aea5bb223e203214385bd98750983f34dfc3bd3ba1710cc"},
	{"TQ4/virtual-cut-through/sat=false/mu=3/tauS=100/rho=0.2/eta=1/w=3", 2451, 1455, 624, 401, 495, 0, 285, 57600, 0, "8b454bebcd03ada8e075d8bdfb5ad25c58a4b44c57e53915e1087699ef18e616"},
	{"TQ4/virtual-cut-through/sat=true/mu=1/tauS=0/rho=0.2/eta=1/w=1", 970, 960, 0, 0, 896, 0, 0, 19200, 0, "df01921eb4afef7a3c06143bcbfbccf2cf9210d7914275b038ab24acf98a00bc"},
	{"TQ4/virtual-cut-through/sat=true/mu=1/tauS=100/rho=0/eta=2/w=3", 4710, 960, 0, 0, 896, 0, 0, 19200, 0, "a34b114395c466d56b94120439c59161b68e184bfad06cb0182e8a3ae26432f3"},
	{"TQ4/virtual-cut-through/sat=true/mu=2/tauS=0/rho=0/eta=2/w=1", 2310, 960, 0, 0, 896, 0, 0, 38400, 0, "0ca6baf1eab6766a72b0d0914f6439545ae76e5d3b12b4128695977c8a343241"},
	{"TQ4/virtual-cut-through/sat=true/mu=2/tauS=100/rho=0/eta=1/w=3", 2655, 960, 0, 0, 896, 0, 0, 38400, 0, "079fc1d3ab64440c0703231040a82c13c803cc082e57ae029d180a5d930e49ce"},
	{"TQ4/virtual-cut-through/sat=true/mu=3/tauS=0/rho=0/eta=1/w=1", 1455, 960, 0, 0, 896, 0, 0, 57600, 0, "668458862d68b6558bd9f14c877e6298a48bb7f19dfcf7744826fa63ecb512f9"},
	{"TQ4/virtual-cut-through/sat=true/mu=3/tauS=0/rho=0.2/eta=2/w=3", 3373, 750, 0, 0, 686, 0, 0, 43200, 30, "993f4d7d8b75f6f2b7c7f5edef7acf0c05b6bcb138b2a87e0f7fa52308cb0049"},
	{"TQ4/virtual-cut-through/sat=true/mu=3/tauS=100/rho=0.2/eta=2/w=1", 6273, 750, 0, 0, 686, 0, 0, 43200, 30, "74d5f58d80318c9c43bc5aa8910670c296d60d6eaa360b31c0319cd3e4c829b6"},
	{"TQ4/store-and-forward/sat=false/mu=1/tauS=0/rho=0.2/eta=1/w=3", 947, 960, 414, 0, 896, 0, 190, 19200, 0, "e2367b740a49251169515808a7351b426a44fd5523b7eec939a2a543f7bd59bd"},
	{"TQ4/store-and-forward/sat=false/mu=1/tauS=100/rho=0.2/eta=1/w=1", 2148, 960, 41, 0, 896, 0, 210, 19200, 0, "23f8f30dee42c16f167bd11f7e62d923d06b22548f181a49952932d46c0ff450"},
	{"TQ4/store-and-forward/sat=false/mu=2/tauS=0/rho=0/eta=2/w=3", 1200, 960, 0, 0, 896, 0, 0, 38400, 0, "277b817def612776cc76b4f266f81c2d593f9e05ee3837c22b8b0ca8648b43db"},
	{"TQ4/store-and-forward/sat=false/mu=2/tauS=100/rho=0/eta=2/w=1", 4200, 960, 0, 0, 896, 0, 0, 38400, 0, "e42b3b6051432a467dab5b735485baf1c4f019a771cbc0d4c2804067d0954354"},
	{"TQ4/store-and-forward/sat=false/mu=3/tauS=0/rho=0/eta=1/w=3", 900, 960, 0, 0, 896, 0, 0, 57600, 0, "2b14e4fc87eb22254bb27f7482a929006b2599253de0f96ed4181ddee73fed61"},
	{"TQ4/store-and-forward/sat=false/mu=3/tauS=100/rho=0/eta=1/w=1", 2400, 960, 0, 0, 896, 0, 0, 57600, 0, "2e9334a2fec819c48ffef9b05a5b11dac85f6f0b0e4edb3ca564b865b0a202b1"},
	{"TQ4/store-and-forward/sat=false/mu=3/tauS=100/rho=0.2/eta=2/w=3", 5690, 750, 5, 0, 686, 0, 156, 43200, 30, "98a4fa088e8c721b42638d21c45178de8d8e9a10817eaa2de6aad1377eb053b8"},
	{"TQ4/store-and-forward/sat=true/mu=1/tauS=0/rho=0.2/eta=2/w=1", 1857, 750, 0, 0, 686, 0, 0, 14400, 30, "57bb8ce1b06107528af9a5f31ed1dc27d0264afbcca1974ad4d5a3b06c05cbbd"},
	{"TQ4/store-and-forward/sat=true/mu=1/tauS=100/rho=0.2/eta=1/w=3", 2429, 960, 0, 0, 896, 0, 0, 19200, 0, "ba34c689133f5d392025b211725dc8d54e8bc70977373bcb16179b0579b51619"},
	{"TQ4/store-and-forward/sat=true/mu=2/tauS=0/rho=0.2/eta=1/w=1", 1404, 960, 0, 0, 896, 0, 0, 38400, 0, "0f84d3ba099c65ec8e912689dc4f81764addb7e7f4549f40c4cf1e8e30fe8b27"},
	{"TQ4/store-and-forward/sat=true/mu=2/tauS=100/rho=0/eta=2/w=3", 5310, 960, 0, 0, 896, 0, 0, 38400, 0, "106114bff2ca7eb102da13d1a8c5e04da527e890b886260db7b6e434eba24fab"},
	{"TQ4/store-and-forward/sat=true/mu=3/tauS=0/rho=0/eta=2/w=1", 2910, 960, 0, 0, 896, 0, 0, 57600, 0, "4dbc992b5a425ee628e47fe6211f2cfbd2094a7f9b2f3134fba0480db9e2f219"},
	{"TQ4/store-and-forward/sat=true/mu=3/tauS=100/rho=0/eta=1/w=3", 2955, 960, 0, 0, 896, 0, 0, 57600, 0, "c1ab9285067004b7fb8cda6caf32897d113d7e56d390e206d422279f776c1695"},
	{"TQ4/wormhole/sat=false/mu=1/tauS=0/rho=0/eta=1/w=1", 300, 960, 0, 896, 0, 0, 0, 19200, 0, "e99f95a20bfcafa5a4a4d6d6d86c8dff3b3cd0d42d25000482058e9fd656d9e4"},
	{"TQ4/wormhole/sat=false/mu=1/tauS=0/rho=0.2/eta=2/w=3", 1259, 750, 101, 478, 0, 208, 134, 14400, 30, "03577815425cdda546f6918a32d59fab738f23b22d2e04e48aa61fa91c19ba65"},
	{"TQ4/wormhole/sat=false/mu=1/tauS=100/rho=0.2/eta=2/w=1", 1524, 750, 84, 475, 0, 211, 155, 14400, 30, "8000b5277a3048caa3d6a959325604397f28f04e45de79670613814398903f16"},
	{"TQ4/wormhole/sat=false/mu=2/tauS=0/rho=0.2/eta=1/w=3", 1323, 960, 683, 165, 0, 731, 192, 38400, 0, "3f973abe4d919c2f794d7c9561fa90943b69d106d2fba3a220cd8326d982bbb8"},
	{"TQ4/wormhole/sat=false/mu=2/tauS=100/rho=0.2/eta=1/w=1", 1417, 960, 672, 173, 0, 723, 192, 38400, 0, "3959e787e58529b36d33ecd1b73795b2674a685fd1eb18ff19a57d76c996da6e"},
	{"TQ4/wormhole/sat=false/mu=3/tauS=0/rho=0/eta=2/w=3", 1478, 960, 448, 448, 0, 448, 0, 57600, 0, "8348434911b5e57cdf1cc0871afaa5d1de7801a310c678a4c3fc1bcc0d2ba1db"},
	{"TQ4/wormhole/sat=false/mu=3/tauS=100/rho=0/eta=2/w=1", 1678, 960, 448, 448, 0, 448, 0, 57600, 0, "b8f33dd62981ffdaf11ffb7eb455144451906698de1c9b9dd38b325414ba92fe"},
	{"TQ4/wormhole/sat=true/mu=1/tauS=0/rho=0/eta=1/w=3", 855, 960, 0, 0, 896, 0, 0, 19200, 0, "49a721691460b90cf8ab7de9b0fb60a788c94ed5aa7cfbc0510c4288173d8824"},
	{"TQ4/wormhole/sat=true/mu=1/tauS=100/rho=0/eta=1/w=1", 2355, 960, 0, 0, 896, 0, 0, 19200, 0, "b573ecf35849ce0d9cecb10f2ebd77a2b6aacc100bf136824dd0c96f778ecf20"},
	{"TQ4/wormhole/sat=true/mu=1/tauS=100/rho=0.2/eta=2/w=3", 4860, 750, 0, 0, 686, 0, 0, 14400, 30, "381e191e213cc296addb3c4c57a07b96c5d959f3e2500057ae71b8d24431e400"},
	{"TQ4/wormhole/sat=true/mu=2/tauS=0/rho=0.2/eta=2/w=1", 2604, 750, 0, 0, 686, 0, 0, 28800, 30, "3438e58c3fdde837957120174ae6f6fea17b1b083516b5604038ebb7b0602e99"},
	{"TQ4/wormhole/sat=true/mu=2/tauS=100/rho=0.2/eta=1/w=3", 2786, 960, 0, 0, 896, 0, 0, 38400, 0, "7d7141acb6a0e29b6fa870a26e672dd3f6ceae521345c34904121f7503d5e9a1"},
	{"TQ4/wormhole/sat=true/mu=3/tauS=0/rho=0.2/eta=1/w=1", 1827, 960, 0, 0, 896, 0, 0, 57600, 0, "0f7719655c99412206999127199c680d6738ea0ba5e3bf69d713f04f6081495b"},
	{"TQ4/wormhole/sat=true/mu=3/tauS=100/rho=0/eta=2/w=3", 5910, 960, 0, 0, 896, 0, 0, 57600, 0, "68cd0e5c2aee4a17275eac0ba64d6dc28287f54a5e6f33431113bc24d2f17207"},
	{"KT4x2/virtual-cut-through/sat=false/mu=1/tauS=0/rho=0/eta=2/w=1", 600, 960, 0, 896, 0, 0, 0, 19200, 0, "84b8e875aa8d87cb534822fb10517441f4a826d9689eb3a07285ff6e9f225218"},
	{"KT4x2/virtual-cut-through/sat=false/mu=1/tauS=100/rho=0/eta=1/w=3", 400, 960, 0, 896, 0, 0, 0, 19200, 0, "3c097498af1bbba6fe4cd9eb197341a6db8c86398138bf37e912bbbd4a75cbf0"},
	{"KT4x2/virtual-cut-through/sat=false/mu=2/tauS=0/rho=0/eta=1/w=1", 600, 1856, 896, 0, 896, 0, 0, 38400, 0, "22b1a6f24c99cf06381ff43dc6b0099c28e0955a2d4a9989972ff3476f0e0d19"},
	{"KT4x2/virtual-cut-through/sat=false/mu=2/tauS=0/rho=0.2/eta=2/w=3", 1597, 993, 226, 443, 243, 0, 237, 28800, 30, "d4114b430650fa3415254602b14f0d9711e60fe8357edd8006c1011cc3e3954b"},
	{"KT4x2/virtual-cut-through/sat=false/mu=2/tauS=100/rho=0.2/eta=2/w=1", 2701, 951, 87, 485, 201, 0, 196, 28800, 30, "f0a5f5410cc0821fbdf4e9eda0d1c50070aba9eed2400f75d513579b1c89e9ed"},
	{"KT4x2/virtual-cut-through/sat=false/mu=3/tauS=0/rho=0.2/eta=1/w=3", 1659, 1663, 989, 193, 703, 0, 346, 57600, 0, "296162b9c368de43a2929ca9a9f4e57735c2a5d1f457865be22f48eb52d81b90"},
	{"KT4x2/virtual-cut-through/sat=false/mu=3/tauS=100/rho=0.2/eta=1/w=1", 2327, 1441, 593, 415, 481, 0, 301, 57600, 0, "b15a2312f99d663b595831a0340dfc1c66e516c7deea0e2e2efbe5e94ffc05fd"},
	{"KT4x2/virtual-cut-through/sat=true/mu=1/tauS=0/rho=0/eta=2/w=3", 1710, 960, 0, 0, 896, 0, 0, 19200, 0, "43fa8b3fb29c122d02e880064d3669560af3e857f7f3dc740ed7b95c29572c68"},
	{"KT4x2/virtual-cut-through/sat=true/mu=1/tauS=100/rho=0/eta=2/w=1", 4710, 960, 0, 0, 896, 0, 0, 19200, 0, "b2d55efb4b3ef385e187b0bbeafe332e08af75d22a8714915b37b46f68550596"},
	{"KT4x2/virtual-cut-through/sat=true/mu=2/tauS=0/rho=0/eta=1/w=3", 1155, 960, 0, 0, 896, 0, 0, 38400, 0, "98c1f6359a572c58ddb7e1d07797f14cdebeb29fe555f8a11ba3a313ee3360db"},
	{"KT4x2/virtual-cut-through/sat=true/mu=2/tauS=100/rho=0/eta=1/w=1", 2655, 960, 0, 0, 896, 0, 0, 38400, 0, "0546737c4725ae1dfbb672635755f96109da62029adb6fa3f595aa9ff470bc2a"},
	{"KT4x2/virtual-cut-through/sat=true/mu=2/tauS=100/rho=0.2/eta=2/w=3", 5604, 750, 0, 0, 686, 0, 0, 28800, 30, "01287d671f2522e71c4f68195151fbb34db38d72c4c45453088789dd22708bfb"},
	{"KT4x2/virtual-cut-through/sat=true/mu=3/tauS=0/rho=0.2/eta=2/w=1", 3385, 750, 0, 0, 686, 0, 0, 43200, 30, "ebd3380d91dcf85461cb46a83e048c53760dc458f77d91703d63de3366cdc40d"},
	{"KT4x2/virtual-cut-through/sat=true/mu=3/tauS=100/rho=0.2/eta=1/w=3", 3192, 960, 0, 0, 896, 0, 0, 57600, 0, "32ffc35f00d2e49ac392e57f8a2c4dda53b9350e0d0f8bf9609f4f330c60552f"},
	{"KT4x2/store-and-forward/sat=false/mu=1/tauS=0/rho=0.2/eta=1/w=1", 902, 960, 373, 0, 896, 0, 165, 19200, 0, "d2174d5cc9730f6461684123cd6e27ae03d4c1d59f3e1c7ffc65d4e8d8af9a44"},
	{"KT4x2/store-and-forward/sat=false/mu=1/tauS=100/rho=0/eta=2/w=3", 3600, 960, 0, 0, 896, 0, 0, 19200, 0, "e90e6a80762eaa5c396ff305b0ae8b1b9d7e87e9ff70e0b6e4074d24f370e966"},
	{"KT4x2/store-and-forward/sat=false/mu=2/tauS=0/rho=0/eta=2/w=1", 1200, 960, 0, 0, 896, 0, 0, 38400, 0, "cc5c7925213896fd4920ade642ee67a06abb53f14215c77438275a5c5b8e1d27"},
	{"KT4x2/store-and-forward/sat=false/mu=2/tauS=100/rho=0/eta=1/w=3", 2100, 960, 0, 0, 896, 0, 0, 38400, 0, "e70b9176ac470174f0e8418df60cc5b6262391ed3a3dd538258e1d7acc945ee8"},
	{"KT4x2/store-and-forward/sat=false/mu=3/tauS=0/rho=0/eta=1/w=1", 900, 960, 0, 0, 896, 0, 0, 57600, 0, "7b73d37d4f5e73134b76ddd47755928e4fecf12928b3ce00aafce9206f0f701a"},
	{"KT4x2/store-and-forward/sat=false/mu=3/tauS=0/rho=0.2/eta=2/w=3", 2589, 750, 49, 0, 686, 0, 146, 43200, 30, "3140c5a12d3a97a0e7bceffd6d34e0bfa3b9223e3dd9569d23b1e44016b52269"},
	{"KT4x2/store-and-forward/sat=false/mu=3/tauS=100/rho=0.2/eta=2/w=1", 5635, 750, 0, 0, 686, 0, 156, 43200, 30, "72a32565c02b3cddb98017eb82f2466a48295983bd82b0dd9ea87c8afbc2f460"},
	{"KT4x2/store-and-forward/sat=true/mu=1/tauS=0/rho=0.2/eta=1/w=3", 985, 960, 0, 0, 896, 0, 0, 19200, 0, "4758a035b49089905d0fd257f08f1ad7a1a0f249377c2d458e68c99ee43928f8"},
	{"KT4x2/store-and-forward/sat=true/mu=1/tauS=100/rho=0.2/eta=1/w=1", 2420, 960, 0, 0, 896, 0, 0, 19200, 0, "0c935f4648b8a9cf8cf4b5588ee2d7f95f8982c82a22f14c86c26aa510109ab5"},
	{"KT4x2/store-and-forward/sat=true/mu=2/tauS=0/rho=0/eta=2/w=3", 2310, 960, 0, 0, 896, 0, 0, 38400, 0, "c643b7eae2544bdf33e8432dc91bd8b755108ec0a456b70dc6323a297c503ed8"},
	{"KT4x2/store-and-forward/sat=true/mu=2/tauS=100/rho=0/eta=2/w=1", 5310, 960, 0, 0, 896, 0, 0, 38400, 0, "be968928dfac69331254a54b560625ff244b0c277714d2850ebff66d64a90ba3"},
	{"KT4x2/store-and-forward/sat=true/mu=3/tauS=0/rho=0/eta=1/w=3", 1455, 960, 0, 0, 896, 0, 0, 57600, 0, "9be273237509298b41cf7f11f4e520c71ba8fd99df3906ca25a9742c8c6337cf"},
	{"KT4x2/store-and-forward/sat=true/mu=3/tauS=100/rho=0/eta=1/w=1", 2955, 960, 0, 0, 896, 0, 0, 57600, 0, "415233f7de13aab5d818a4f7bf3d25247de6e773363f91e7b0eb3de18d225350"},
	{"KT4x2/store-and-forward/sat=true/mu=3/tauS=100/rho=0.2/eta=2/w=3", 6359, 750, 0, 0, 686, 0, 0, 43200, 30, "8ec9c2026f0d540e6ac9b0f6cad546bae2fc6f1859477bd3e7cca7897b866c3f"},
	{"KT4x2/wormhole/sat=false/mu=1/tauS=0/rho=0.2/eta=2/w=1", 1265, 750, 96, 467, 0, 219, 152, 14400, 30, "5bec2d3bbccc65e100d8b31df751a1087ac3e73b581464fc109c2eee9c77ef29"},
	{"KT4x2/wormhole/sat=false/mu=1/tauS=100/rho=0.2/eta=1/w=3", 1085, 960, 456, 347, 0, 549, 202, 19200, 0, "4968e70061c355534a2e8ed7866ec0eca467bd69dbea5d90412d4ee6cf4ecbd7"},
	{"KT4x2/wormhole/sat=false/mu=2/tauS=0/rho=0.2/eta=1/w=1", 1260, 960, 699, 159, 0, 737, 172, 38400, 0, "5a258a837d5f14b0df0f5d3854fc4c805e4a7427bd8bf3a3f8af25170a3da2dd"},
	{"KT4x2/wormhole/sat=false/mu=2/tauS=100/rho=0/eta=2/w=3", 840, 960, 0, 896, 0, 0, 0, 38400, 0, "f0b5e4d714ebfeceb792f9314d437cb4f40acf2c00f2e447413a04d2b6efafbc"},
	{"KT4x2/wormhole/sat=false/mu=3/tauS=0/rho=0/eta=2/w=1", 1478, 960, 448, 448, 0, 448, 0, 57600, 0, "fe3b7d7834213d404096f8e9ac216e22c9813f594e28337b0485c5e4911b3030"},
	{"KT4x2/wormhole/sat=false/mu=3/tauS=100/rho=0/eta=1/w=3", 1518, 960, 896, 0, 0, 896, 0, 57600, 0, "8bfda623840ccfffdbb981a44e8d55495711afc5107c038a827cacb8fad4126e"},
	{"KT4x2/wormhole/sat=true/mu=1/tauS=0/rho=0/eta=1/w=1", 855, 960, 0, 0, 896, 0, 0, 19200, 0, "0503a80271b71e1ab1a4ad63895bad82745252cc63d08a78e03b1d8ea4e1770d"},
	{"KT4x2/wormhole/sat=true/mu=1/tauS=0/rho=0.2/eta=2/w=3", 1837, 750, 0, 0, 686, 0, 0, 14400, 30, "e9e37de02dcc6ef3d6b5e0de4e4a4353011473b4c4967eaae4f80c01046b19b0"},
	{"KT4x2/wormhole/sat=true/mu=1/tauS=100/rho=0.2/eta=2/w=1", 4851, 750, 0, 0, 686, 0, 0, 14400, 30, "a7c0f3c1058979359f0122990822b6dc6cb32a212d8cd238441ac5df0dd1da34"},
	{"KT4x2/wormhole/sat=true/mu=2/tauS=0/rho=0.2/eta=1/w=3", 1387, 960, 0, 0, 896, 0, 0, 38400, 0, "b82b050b0340812703bd94df398792b21819cc293bcb49a5042b9d1617a306ba"},
	{"KT4x2/wormhole/sat=true/mu=2/tauS=100/rho=0.2/eta=1/w=1", 2820, 960, 0, 0, 896, 0, 0, 38400, 0, "5c256b6240aabc03ba401f203b2a29b38e9d335928a62dd970d9c5f929c8ca1c"},
	{"KT4x2/wormhole/sat=true/mu=3/tauS=0/rho=0/eta=2/w=3", 2910, 960, 0, 0, 896, 0, 0, 57600, 0, "152dc686a3597a067e1847aa322a37018c37e9e23aa6a6e8145521dae0e3be7f"},
	{"KT4x2/wormhole/sat=true/mu=3/tauS=100/rho=0/eta=2/w=1", 5910, 960, 0, 0, 896, 0, 0, 57600, 0, "be8396a8891223906433a579924af462f3a70fd012f8c36de8e86bda9d6154c4"},
}
