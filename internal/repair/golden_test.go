package repair

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/hamilton"
	"ihc/internal/simnet"
)

// The golden matrix pins repaired runs end to end: seeded permanent
// broken-link placements on six families, at t ∈ {γ−1, γ, γ+1} broken
// links and background load ρ ∈ {0, 0.2}, four placements per cell,
// under the standard timing (τ_S=100, α=20, μ=2, D=37). A second, smaller
// block reruns SQ4 and Q4 at τ_S = 0, μ = 1: there a packet injected from
// a timer starts on the timer's own tick and a blocked cut-through falls
// back to a send on its own tick, the engine's two same-tick paths. Each
// row records the run's Finish, Events, the repair layer's Stats, and a
// SHA-256 over the full delivery stream (NAKs and retransmissions
// included, in engine order). Any change to the engine's event order,
// the Manager's detection or routing decisions, or the delivery log
// shows up here as a changed row; performance work on the repair path
// must leave every row as it is.

type goldenRow struct {
	name   string
	finish simnet.Time
	events int64
	stats  Stats
	sha    string
}

// deliveryDigest hashes every field of every delivery in order.
func deliveryDigest(ds []simnet.Delivery) string {
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

// goldenBlock is one timing of the matrix over a list of topologies.
type goldenBlock struct {
	families   []string
	params     simnet.Params // Rho and Seed are set per run
	placements int
}

var goldenBlocks = []goldenBlock{
	{[]string{"Q6", "SQ4", "H3", "Q4", "TQ4", "KT4x2"}, simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}, 4},
	{[]string{"SQ4", "Q4"}, simnet.Params{TauS: 0, Alpha: 20, Mu: 1, D: 37}, 2},
}

// runGolden executes the matrix and returns one row per run.
func runGolden(t *testing.T) []goldenRow {
	t.Helper()
	var rows []goldenRow
	for _, b := range goldenBlocks {
		rows = append(rows, runGoldenBlock(t, b)...)
	}
	return rows
}

func runGoldenBlock(t *testing.T, b goldenBlock) []goldenRow {
	t.Helper()
	var rows []goldenRow
	for _, name := range b.families {
		in, err := hamilton.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		g, cycles, err := in.Build()
		if err != nil {
			t.Fatal(err)
		}
		x, err := core.New(g, cycles)
		if err != nil {
			t.Fatal(err)
		}
		edges := g.Edges()
		gamma := x.Gamma()
		for _, tt := range []int{gamma - 1, gamma, gamma + 1} {
			for _, rho := range []float64{0, 0.2} {
				for k := 0; k < b.placements; k++ {
					seed := int64(1000*tt + 100*int(rho*10) + k)
					rng := rand.New(rand.NewSource(seed))
					plan := &fault.TemporalPlan{Seed: seed}
					for _, i := range rng.Perm(len(edges))[:tt] {
						e := edges[i]
						plan.Links = append(plan.Links, fault.LinkFault{U: e.U, V: e.V, Until: fault.Forever})
					}
					inj, err := plan.Compile(g)
					if err != nil {
						t.Fatal(err)
					}
					p := b.params
					p.Rho, p.Seed = rho, seed
					cfg := core.Config{
						Params:           p,
						SkipCopies:       true,
						RecordDeliveries: true,
						Fault:            inj,
					}
					res, st, err := Run(x, cfg, Config{})
					if err != nil {
						t.Fatalf("%s t=%d ρ=%g #%d: %v", name, tt, rho, k, err)
					}
					rows = append(rows, goldenRow{
						name:   fmt.Sprintf("%s/tauS=%d/t=%d/rho=%g/%d", name, b.params.TauS, tt, rho, k),
						finish: res.Finish,
						events: res.Events,
						stats:  st,
						sha:    deliveryDigest(res.Deliveriesv),
					})
				}
			}
		}
	}
	return rows
}

// TestRepairedGolden compares the matrix against the recorded rows and
// prints both versions of every row that differs.
func TestRepairedGolden(t *testing.T) {
	got := runGolden(t)
	if len(got) != len(repairedGolden) {
		t.Fatalf("matrix produced %d rows, golden table has %d", len(got), len(repairedGolden))
	}
	bad := 0
	for i, r := range got {
		if r != repairedGolden[i] {
			bad++
			t.Errorf("row %d differs:\n got  %#v\n want %#v", i, r, repairedGolden[i])
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d golden rows differ", bad, len(got))
	}
}

// repairedGolden holds the recorded rows, in runGolden's order. Record
// them again only for a deliberate change of behaviour, never to absorb
// a performance change.
var repairedGolden = []goldenRow{
	{"Q6/tauS=100/t=5/rho=0/0", 23980, 36262, Stats{Timeouts: 7166, Naks: 212, Retransmissions: 190, Recovered: 7166, GaveUp: 0, DeadLinks: 5, DeadNodes: 0, Detours: 190}, "47e509f2d651310233a85848b4341d362d06dbfaa966921614e59d6184a1d45f"},
	{"Q6/tauS=100/t=5/rho=0/1", 22663, 36016, Stats{Timeouts: 7056, Naks: 215, Retransmissions: 191, Recovered: 7056, GaveUp: 0, DeadLinks: 5, DeadNodes: 0, Detours: 191}, "4be4f6b8a95a5499b49dc77283a98e201dbd41ea42ac3779686b1697414b3afd"},
	{"Q6/tauS=100/t=5/rho=0/2", 23057, 31136, Stats{Timeouts: 6385, Naks: 136, Retransmissions: 128, Recovered: 6385, GaveUp: 0, DeadLinks: 5, DeadNodes: 0, Detours: 128}, "a5e5d7ac85d9c1a43b3f0985d02d616a716d0ccd7a00adb5b22f0812bd1bdb71"},
	{"Q6/tauS=100/t=5/rho=0/3", 22221, 31673, Stats{Timeouts: 6154, Naks: 140, Retransmissions: 128, Recovered: 6154, GaveUp: 0, DeadLinks: 5, DeadNodes: 0, Detours: 128}, "4a6d056c3c113f958646984ff857573da0ea5de1e65b53a18b71751974ed358f"},
	{"Q6/tauS=100/t=5/rho=0.2/0", 53679, 44698, Stats{Timeouts: 6528, Naks: 208, Retransmissions: 191, Recovered: 6528, GaveUp: 0, DeadLinks: 5, DeadNodes: 0, Detours: 191}, "35807947b0b962df9bce83515e7be669b3e48e78bc58ba1ee80494fd7b52555a"},
	{"Q6/tauS=100/t=5/rho=0.2/1", 51770, 39638, Stats{Timeouts: 5471, Naks: 148, Retransmissions: 128, Recovered: 5471, GaveUp: 0, DeadLinks: 5, DeadNodes: 0, Detours: 128}, "87cbe58fe5b7d3ade8a5701202e8e88af8412b54ec8a810c61e6212a629ffc10"},
	{"Q6/tauS=100/t=5/rho=0.2/2", 54666, 42427, Stats{Timeouts: 7916, Naks: 205, Retransmissions: 191, Recovered: 7916, GaveUp: 0, DeadLinks: 5, DeadNodes: 1, Detours: 191}, "4e6e70b7c1898145434925fa8b2ffb82e66177d163edafb121e6f2fbf9922a8a"},
	{"Q6/tauS=100/t=5/rho=0.2/3", 55093, 42866, Stats{Timeouts: 7193, Naks: 215, Retransmissions: 190, Recovered: 7193, GaveUp: 0, DeadLinks: 5, DeadNodes: 1, Detours: 190}, "b1f1a9e764ccf86476e09ca1f16c6a1c190732e61208a2f4b3b1ab9660d6f1aa"},
	{"Q6/tauS=100/t=6/rho=0/0", 23442, 31925, Stats{Timeouts: 6307, Naks: 140, Retransmissions: 128, Recovered: 6307, GaveUp: 0, DeadLinks: 6, DeadNodes: 1, Detours: 128}, "acaebeb50bf62cbe0a9e3772b4055fe8bb705f00df4644af4771d93879341952"},
	{"Q6/tauS=100/t=6/rho=0/1", 22300, 36225, Stats{Timeouts: 7686, Naks: 215, Retransmissions: 191, Recovered: 7686, GaveUp: 0, DeadLinks: 6, DeadNodes: 1, Detours: 191}, "cbd36500be6c43bb70f8bb92a58c9e92a953441f198589f8087eaa31d0d3e28e"},
	{"Q6/tauS=100/t=6/rho=0/2", 26117, 35659, Stats{Timeouts: 7974, Naks: 240, Retransmissions: 192, Recovered: 7974, GaveUp: 0, DeadLinks: 6, DeadNodes: 2, Detours: 192}, "3041f2704c3ebb865ac3f25a038b89abf68492240256c9400376071846472cb7"},
	{"Q6/tauS=100/t=6/rho=0/3", 28516, 35861, Stats{Timeouts: 8029, Naks: 219, Retransmissions: 191, Recovered: 8029, GaveUp: 0, DeadLinks: 6, DeadNodes: 0, Detours: 191}, "1dcb029aadcd85aa1c4861947f9921b3e8ae0862553a66a7bd62ba16cad4d18d"},
	{"Q6/tauS=100/t=6/rho=0.2/0", 54277, 39638, Stats{Timeouts: 5439, Naks: 134, Retransmissions: 127, Recovered: 5439, GaveUp: 0, DeadLinks: 6, DeadNodes: 1, Detours: 127}, "0904e09cb5bd4f14f3182c45c2b92337f607d32a83c1bc4c03b7190a5588a86a"},
	{"Q6/tauS=100/t=6/rho=0.2/1", 54893, 44868, Stats{Timeouts: 6778, Naks: 226, Retransmissions: 191, Recovered: 6778, GaveUp: 0, DeadLinks: 6, DeadNodes: 1, Detours: 191}, "593e3457c90e670adac7b18ed9a9a7ce8e9e54eacf35c5cdc93ad6fba944d2c7"},
	{"Q6/tauS=100/t=6/rho=0.2/2", 55366, 43953, Stats{Timeouts: 7216, Naks: 210, Retransmissions: 190, Recovered: 7216, GaveUp: 0, DeadLinks: 6, DeadNodes: 1, Detours: 190}, "4065522b59ab0924cf200c2288c7826a97a2a5b50cfdc106e798c65842d08eef"},
	{"Q6/tauS=100/t=6/rho=0.2/3", 52753, 43023, Stats{Timeouts: 8162, Naks: 210, Retransmissions: 192, Recovered: 8162, GaveUp: 0, DeadLinks: 6, DeadNodes: 0, Detours: 192}, "468bef862a9ab64cba8421b3b610237ba6c19bb1027d5d282f52d249304f6368"},
	{"Q6/tauS=100/t=7/rho=0/0", 22919, 35800, Stats{Timeouts: 8432, Naks: 221, Retransmissions: 191, Recovered: 8432, GaveUp: 0, DeadLinks: 7, DeadNodes: 0, Detours: 191}, "dc49e16c265806ac4f6a862021a37db9e45ed8e5b2a612e06aa875c6ebb09429"},
	{"Q6/tauS=100/t=7/rho=0/1", 37230, 35006, Stats{Timeouts: 8604, Naks: 238, Retransmissions: 192, Recovered: 8604, GaveUp: 0, DeadLinks: 7, DeadNodes: 2, Detours: 192}, "7c849af804afb23be6e8736ad68c7eb2546981d5020b35226996a30b0397876b"},
	{"Q6/tauS=100/t=7/rho=0/2", 38887, 35633, Stats{Timeouts: 8353, Naks: 230, Retransmissions: 192, Recovered: 8353, GaveUp: 0, DeadLinks: 7, DeadNodes: 1, Detours: 192}, "24b736a49da480cc0b064f9c50537d104434f39e228ade5824abd121d0794af2"},
	{"Q6/tauS=100/t=7/rho=0/3", 25541, 36315, Stats{Timeouts: 7613, Naks: 227, Retransmissions: 191, Recovered: 7613, GaveUp: 0, DeadLinks: 7, DeadNodes: 1, Detours: 191}, "045df15c526ea777227bc8899aa9271a6170ae96d5d838cabe84675d4271df18"},
	{"Q6/tauS=100/t=7/rho=0.2/0", 68891, 42648, Stats{Timeouts: 8281, Naks: 231, Retransmissions: 192, Recovered: 8281, GaveUp: 0, DeadLinks: 7, DeadNodes: 2, Detours: 192}, "926ff576644517bdac01a46efd06a05b32924fb57509bc31f5f7e1b964a4e8b4"},
	{"Q6/tauS=100/t=7/rho=0.2/1", 54906, 43531, Stats{Timeouts: 8034, Naks: 218, Retransmissions: 191, Recovered: 8034, GaveUp: 0, DeadLinks: 7, DeadNodes: 0, Detours: 191}, "bd15215d68b4a9eec83e1ec861fb4f0650b793e4acf43cde9093ac3cee223fae"},
	{"Q6/tauS=100/t=7/rho=0.2/2", 57232, 42618, Stats{Timeouts: 8448, Naks: 245, Retransmissions: 192, Recovered: 8448, GaveUp: 0, DeadLinks: 7, DeadNodes: 1, Detours: 192}, "1f545099d31d6fc2c127b8c9a16b05b8db0d9dc981eb803b6fd9f90ccedc69f7"},
	{"Q6/tauS=100/t=7/rho=0.2/3", 51367, 39368, Stats{Timeouts: 6343, Naks: 134, Retransmissions: 128, Recovered: 6343, GaveUp: 0, DeadLinks: 7, DeadNodes: 0, Detours: 128}, "068f70a5e8a515cfaea29866bae073e89962b1385f00a2fa102d2f30dcfc4a9f"},
	{"SQ4/tauS=100/t=3/rho=0/0", 5936, 1823, Stats{Timeouts: 288, Naks: 34, Retransmissions: 31, Recovered: 288, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 31}, "2c7e2c1cefe0a22e1efd67c4895a045bfd5008113605641bddd5b4da38ed2a50"},
	{"SQ4/tauS=100/t=3/rho=0/1", 7578, 1821, Stats{Timeouts: 284, Naks: 39, Retransmissions: 31, Recovered: 284, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 31}, "c4a3f879568a78f0b2cb2755c7d1af6dc61435c1140ede40c5902e063a25550e"},
	{"SQ4/tauS=100/t=3/rho=0/2", 6884, 1789, Stats{Timeouts: 304, Naks: 34, Retransmissions: 31, Recovered: 304, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 31}, "2d0860a2ca7b1b72e7d029d9b5ada4a1036d1b309db312cdab1d183e65720686"},
	{"SQ4/tauS=100/t=3/rho=0/3", 6374, 1797, Stats{Timeouts: 302, Naks: 36, Retransmissions: 31, Recovered: 302, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 31}, "c6b4c01e5e3315ef6cb339f0a76b2e8efd0d1a178b5232a3d668e179ed8f954c"},
	{"SQ4/tauS=100/t=3/rho=0.2/0", 14211, 2052, Stats{Timeouts: 298, Naks: 35, Retransmissions: 31, Recovered: 298, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 31}, "c83196badc5811da8c1f70c267bc37f5fe713e3478f59fe20bce9820e98ba808"},
	{"SQ4/tauS=100/t=3/rho=0.2/1", 13647, 2053, Stats{Timeouts: 302, Naks: 34, Retransmissions: 31, Recovered: 302, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 31}, "8c23e3682284256c374066e466fe117e66fb69d718fd1c70a705090834149090"},
	{"SQ4/tauS=100/t=3/rho=0.2/2", 15135, 2034, Stats{Timeouts: 292, Naks: 34, Retransmissions: 31, Recovered: 292, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 31}, "9a3d00eff625eed561fb52237989ea842f58e4a944e6fd1ea6c5d0edf44bd100"},
	{"SQ4/tauS=100/t=3/rho=0.2/3", 13744, 1829, Stats{Timeouts: 184, Naks: 17, Retransmissions: 16, Recovered: 184, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 16}, "07d9352a2434a348ea486461226d224df970017b69c2d048e96a2e64eb4b14f3"},
	{"SQ4/tauS=100/t=4/rho=0/0", 6793, 1831, Stats{Timeouts: 317, Naks: 36, Retransmissions: 31, Recovered: 317, GaveUp: 0, DeadLinks: 4, DeadNodes: 1, Detours: 31}, "3727653a9e599f1233955da9196f65b109610651395d85c9a89b4161fdb31294"},
	{"SQ4/tauS=100/t=4/rho=0/1", 6276, 1974, Stats{Timeouts: 297, Naks: 36, Retransmissions: 31, Recovered: 297, GaveUp: 0, DeadLinks: 4, DeadNodes: 2, Detours: 31}, "7c091ac27c790616f9d5883ad0a8e31267272a6c34689bd4d730ea96047e2ee4"},
	{"SQ4/tauS=100/t=4/rho=0/2", 6699, 1849, Stats{Timeouts: 317, Naks: 39, Retransmissions: 31, Recovered: 317, GaveUp: 0, DeadLinks: 4, DeadNodes: 1, Detours: 31}, "324b873670faec2fefc3f9e3c117de203a0c94bc07f8cb4b23950bf1aae965b6"},
	{"SQ4/tauS=100/t=4/rho=0/3", 4324, 1566, Stats{Timeouts: 204, Naks: 18, Retransmissions: 16, Recovered: 204, GaveUp: 0, DeadLinks: 4, DeadNodes: 0, Detours: 16}, "7e106d63902ecf3eae4b6d8423de7d88c98d261029197aefda3b1f29e74c166f"},
	{"SQ4/tauS=100/t=4/rho=0.2/0", 14651, 2172, Stats{Timeouts: 315, Naks: 34, Retransmissions: 31, Recovered: 315, GaveUp: 0, DeadLinks: 4, DeadNodes: 0, Detours: 31}, "a8f2eb7f5c9d809d73aa5d9a199ddd0c7c528d3478a414fb790d49879fba4359"},
	{"SQ4/tauS=100/t=4/rho=0.2/1", 14371, 2347, Stats{Timeouts: 292, Naks: 37, Retransmissions: 31, Recovered: 292, GaveUp: 0, DeadLinks: 4, DeadNodes: 1, Detours: 31}, "17f80b9a78f50f12ff3eb21ffd7f1b9325afbd6b9536b5e263398396c13f896c"},
	{"SQ4/tauS=100/t=4/rho=0.2/2", 14200, 2165, Stats{Timeouts: 316, Naks: 36, Retransmissions: 32, Recovered: 316, GaveUp: 0, DeadLinks: 4, DeadNodes: 1, Detours: 32}, "d1735662922d04a9728ad638a33220c0d016c161f9424bea09833bd6a6dafd7b"},
	{"SQ4/tauS=100/t=4/rho=0.2/3", 18010, 2261, Stats{Timeouts: 296, Naks: 41, Retransmissions: 32, Recovered: 296, GaveUp: 0, DeadLinks: 4, DeadNodes: 2, Detours: 32}, "ccee86770b095917f2d2847f951d732b2ff53f0931da8dc44ef25b996d60d851"},
	{"SQ4/tauS=100/t=5/rho=0/0", 10216, 2047, Stats{Timeouts: 347, Naks: 42, Retransmissions: 32, Recovered: 347, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 32}, "e21a7701c99a59e8624fc614f09133252843e649956b49bd81fedc9accb9dbf8"},
	{"SQ4/tauS=100/t=5/rho=0/1", 10433, 1917, Stats{Timeouts: 389, Naks: 44, Retransmissions: 32, Recovered: 389, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 32}, "233b845946d31e852569234506b5da219323ba6e453acf829615ea332dd345eb"},
	{"SQ4/tauS=100/t=5/rho=0/2", 10012, 1960, Stats{Timeouts: 331, Naks: 45, Retransmissions: 32, Recovered: 331, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 32}, "7fd5c35f21f6eeb3346cd879235b35d6356fa5f8446a7f653fb94e47cdfb3fa8"},
	{"SQ4/tauS=100/t=5/rho=0/3", 6175, 1943, Stats{Timeouts: 330, Naks: 38, Retransmissions: 31, Recovered: 330, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 31}, "92307c69c4909b03b0a785d438f90d7370f388272383747848b6cb8a06c9d4b2"},
	{"SQ4/tauS=100/t=5/rho=0.2/0", 15900, 2239, Stats{Timeouts: 352, Naks: 40, Retransmissions: 32, Recovered: 352, GaveUp: 0, DeadLinks: 5, DeadNodes: 1, Detours: 32}, "a6c035f77b02c9b5b18bfb07b7363269c2658cf3acbe21d748d33de9dc658467"},
	{"SQ4/tauS=100/t=5/rho=0.2/1", 14332, 2288, Stats{Timeouts: 322, Naks: 38, Retransmissions: 31, Recovered: 322, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 31}, "b7fe513702e8c15e22a8b986ab7fc3066e53abb18444f566efdc96851fa3a3e6"},
	{"SQ4/tauS=100/t=5/rho=0.2/2", 18437, 2210, Stats{Timeouts: 332, Naks: 42, Retransmissions: 32, Recovered: 332, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 32}, "eefbe292830e1181773ec2e5f1feba7b60361f115a6352182ca3a768638dec7f"},
	{"SQ4/tauS=100/t=5/rho=0.2/3", 17529, 2223, Stats{Timeouts: 353, Naks: 43, Retransmissions: 32, Recovered: 353, GaveUp: 0, DeadLinks: 5, DeadNodes: 1, Detours: 32}, "1ac7c60d308d4f3bfa7c7f52be8036ea5a921e7afb11feb3f0ab4c31a89e23de"},
	{"H3/tauS=100/t=5/rho=0/0", 8054, 3810, Stats{Timeouts: 703, Naks: 68, Retransmissions: 58, Recovered: 703, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 54}, "1a0d0c0f442c82a641186744a65b9c4926a77cf3debb4c696f3afaf8f1650504"},
	{"H3/tauS=100/t=5/rho=0/1", 7666, 3687, Stats{Timeouts: 630, Naks: 69, Retransmissions: 60, Recovered: 630, GaveUp: 0, DeadLinks: 5, DeadNodes: 3, Detours: 50}, "729f0dd644c1c913afce1b3a8a85f621b3b29253b6b6ffb4a73d70159f9cd99a"},
	{"H3/tauS=100/t=5/rho=0/2", 5971, 3801, Stats{Timeouts: 683, Naks: 62, Retransmissions: 60, Recovered: 683, GaveUp: 0, DeadLinks: 5, DeadNodes: 1, Detours: 50}, "566ff316907a7318f9d222d389c06518b79c7319399e7a5eeaedb9a1758c2a4c"},
	{"H3/tauS=100/t=5/rho=0/3", 6712, 3719, Stats{Timeouts: 675, Naks: 64, Retransmissions: 58, Recovered: 675, GaveUp: 0, DeadLinks: 5, DeadNodes: 1, Detours: 54}, "f0c0d9f56f756a64ecf26a97261e34cf6420000bbf473082582154b5d2e1fb9e"},
	{"H3/tauS=100/t=5/rho=0.2/0", 16651, 3988, Stats{Timeouts: 557, Naks: 44, Retransmissions: 40, Recovered: 557, GaveUp: 0, DeadLinks: 5, DeadNodes: 1, Detours: 36}, "d8bc71d4a7eabc68610d7ec0c1a6225899b0fc3b2beb854682c8e698fc0a9ac9"},
	{"H3/tauS=100/t=5/rho=0.2/1", 16916, 4258, Stats{Timeouts: 657, Naks: 68, Retransmissions: 59, Recovered: 657, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 53}, "98b4697451cef258cc6245d6622dc7abfc2620e0b5fac5e23649fdbbe2a7f8bc"},
	{"H3/tauS=100/t=5/rho=0.2/2", 17232, 4349, Stats{Timeouts: 639, Naks: 69, Retransmissions: 58, Recovered: 639, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 54}, "d70a9b296afcf57bc24b93fb605afdbe57d0ba52641418b6fefc9c24d497e8db"},
	{"H3/tauS=100/t=5/rho=0.2/3", 17080, 4290, Stats{Timeouts: 749, Naks: 63, Retransmissions: 60, Recovered: 749, GaveUp: 0, DeadLinks: 5, DeadNodes: 0, Detours: 52}, "98306314d703fcf048bdfdb0bfcfa7a6eaecc66fb233922b83cd26696335c06f"},
	{"H3/tauS=100/t=6/rho=0/0", 11187, 3774, Stats{Timeouts: 750, Naks: 71, Retransmissions: 58, Recovered: 750, GaveUp: 0, DeadLinks: 6, DeadNodes: 3, Detours: 54}, "24c978b4a406571350023631d1b85a3f61e8dbc1decefe719a547dc1b776c725"},
	{"H3/tauS=100/t=6/rho=0/1", 7309, 3710, Stats{Timeouts: 684, Naks: 64, Retransmissions: 59, Recovered: 684, GaveUp: 0, DeadLinks: 6, DeadNodes: 2, Detours: 53}, "4b15826373663629c57c684073c33729986d8a208930c36a50ef09ecab0a4501"},
	{"H3/tauS=100/t=6/rho=0/2", 7388, 3946, Stats{Timeouts: 724, Naks: 68, Retransmissions: 59, Recovered: 724, GaveUp: 0, DeadLinks: 6, DeadNodes: 2, Detours: 53}, "d2d204b9bad415017bd6eb60f5ac7f18f0d6b62302ef4205a5d3a3123718042e"},
	{"H3/tauS=100/t=6/rho=0/3", 8964, 3870, Stats{Timeouts: 708, Naks: 76, Retransmissions: 58, Recovered: 708, GaveUp: 0, DeadLinks: 6, DeadNodes: 3, Detours: 54}, "4f2ea19ac01575c84c65a1ed417b5fd869fdd15eb841cf4f6b8e809cd41fa387"},
	{"H3/tauS=100/t=6/rho=0.2/0", 18188, 4602, Stats{Timeouts: 716, Naks: 70, Retransmissions: 60, Recovered: 716, GaveUp: 0, DeadLinks: 6, DeadNodes: 3, Detours: 52}, "64a7283af18ecd7b1195fb7279ad9fff5128ce42183432f6b726e9e7fbc86578"},
	{"H3/tauS=100/t=6/rho=0.2/1", 16713, 4491, Stats{Timeouts: 673, Naks: 65, Retransmissions: 57, Recovered: 673, GaveUp: 0, DeadLinks: 6, DeadNodes: 2, Detours: 53}, "6ac78e47d0d98d9a864c7d48d5a2a334610ce09fa0020595e4463fbb2b4f910c"},
	{"H3/tauS=100/t=6/rho=0.2/2", 118807, 7962, Stats{Timeouts: 921, Naks: 295, Retransmissions: 283, Recovered: 430, GaveUp: 491, DeadLinks: 5, DeadNodes: 1, Detours: 54}, "9b013e5b972cea5891398889242f8dc66eca9ede795424c858423d33d011cd33"},
	{"H3/tauS=100/t=6/rho=0.2/3", 17307, 4453, Stats{Timeouts: 729, Naks: 69, Retransmissions: 60, Recovered: 729, GaveUp: 0, DeadLinks: 6, DeadNodes: 2, Detours: 52}, "da837c89416521134755a458fab66b631d5c117fb8f765cc1aee84687bac3a18"},
	{"H3/tauS=100/t=7/rho=0/0", 7740, 3869, Stats{Timeouts: 748, Naks: 68, Retransmissions: 60, Recovered: 748, GaveUp: 0, DeadLinks: 7, DeadNodes: 3, Detours: 52}, "c4c5a69cd033ec45ead57f895f8ff6bed89468ca8ae6f2512159966b787209ce"},
	{"H3/tauS=100/t=7/rho=0/1", 7172, 3846, Stats{Timeouts: 748, Naks: 73, Retransmissions: 60, Recovered: 748, GaveUp: 0, DeadLinks: 7, DeadNodes: 2, Detours: 52}, "d66cf9488184b75dc79fb6ac0d6941b46f649fbef696ec4392891335dd10bb77"},
	{"H3/tauS=100/t=7/rho=0/2", 7811, 3901, Stats{Timeouts: 758, Naks: 69, Retransmissions: 60, Recovered: 758, GaveUp: 0, DeadLinks: 7, DeadNodes: 3, Detours: 54}, "5f0c5fc37eb52b7fa0e7b897967f4e0ba340c688d9e81513c3f6ac89f1b49594"},
	{"H3/tauS=100/t=7/rho=0/3", 12620, 3809, Stats{Timeouts: 785, Naks: 70, Retransmissions: 60, Recovered: 785, GaveUp: 0, DeadLinks: 7, DeadNodes: 4, Detours: 54}, "2dbb75a5be680905b994848cda03b598853d990bf0366dc644119d87f0e90469"},
	{"H3/tauS=100/t=7/rho=0.2/0", 20312, 4335, Stats{Timeouts: 753, Naks: 70, Retransmissions: 60, Recovered: 753, GaveUp: 0, DeadLinks: 7, DeadNodes: 4, Detours: 54}, "bbfecbbce68296b05e6586d619fc3389262a1c707b9081dbe3e99c389c19a684"},
	{"H3/tauS=100/t=7/rho=0.2/1", 16179, 4559, Stats{Timeouts: 780, Naks: 70, Retransmissions: 60, Recovered: 780, GaveUp: 0, DeadLinks: 7, DeadNodes: 2, Detours: 52}, "acd54f1d455ad483c2005fdbb56c9056b443fd75bba9e275a585ca9ed82bd464"},
	{"H3/tauS=100/t=7/rho=0.2/2", 17848, 4386, Stats{Timeouts: 762, Naks: 71, Retransmissions: 60, Recovered: 762, GaveUp: 0, DeadLinks: 7, DeadNodes: 1, Detours: 52}, "5948b8702952cfc156e42698e926a7b599b9db366ce12bf03e4f6c68cc5582fe"},
	{"H3/tauS=100/t=7/rho=0.2/3", 16248, 4419, Stats{Timeouts: 656, Naks: 67, Retransmissions: 56, Recovered: 656, GaveUp: 0, DeadLinks: 7, DeadNodes: 3, Detours: 54}, "ab9233398b5f5d2d4af59f5f9a7e1c5cfcf536bdaf7fba1e1e92ed31d0cfb949"},
	{"Q4/tauS=100/t=3/rho=0/0", 3801, 1524, Stats{Timeouts: 197, Naks: 16, Retransmissions: 16, Recovered: 197, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 16}, "3464ed663dafc29ba47d8c0968a6f8cfd65a43d2687a3566cc2da075fa3f95c7"},
	{"Q4/tauS=100/t=3/rho=0/1", 5638, 1530, Stats{Timeouts: 196, Naks: 17, Retransmissions: 16, Recovered: 196, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 16}, "0892ca2a83cc00141470aa6c26db761b189cc4c18579a62822759c5b529fae4f"},
	{"Q4/tauS=100/t=3/rho=0/2", 7112, 1741, Stats{Timeouts: 304, Naks: 36, Retransmissions: 31, Recovered: 304, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 31}, "99d3b321ab68a1b523e35ae083fa174220c8309bd40ee0174dd382d4abe62cb1"},
	{"Q4/tauS=100/t=3/rho=0/3", 6482, 1799, Stats{Timeouts: 300, Naks: 33, Retransmissions: 31, Recovered: 300, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 31}, "8c9508b72749ae2a8b604f18a8e4a2db43ef4c6c3a9b3782c25e1cf6bd634c12"},
	{"Q4/tauS=100/t=3/rho=0.2/0", 14449, 2121, Stats{Timeouts: 300, Naks: 36, Retransmissions: 31, Recovered: 300, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 31}, "a1404ef62922995ad2970d638d23254ea729c9d4a16870680949fc704ff935b5"},
	{"Q4/tauS=100/t=3/rho=0.2/1", 13935, 2059, Stats{Timeouts: 302, Naks: 34, Retransmissions: 31, Recovered: 302, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 31}, "ffe6a3d86cb0bc438e3063e1d50d062f0b107c1af41334d61b67b3a57b0f2a08"},
	{"Q4/tauS=100/t=3/rho=0.2/2", 15624, 2121, Stats{Timeouts: 268, Naks: 35, Retransmissions: 31, Recovered: 268, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 31}, "77acba3a00edda31e539889a49f0ebbc943e6bdc33d0c738d0b96bacf0f59709"},
	{"Q4/tauS=100/t=3/rho=0.2/3", 14948, 2083, Stats{Timeouts: 298, Naks: 35, Retransmissions: 31, Recovered: 298, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 31}, "5e64869a8e69738f031d2cbbcdc3d32235269c6b8e5f9b58820a9ed9ea710e56"},
	{"Q4/tauS=100/t=4/rho=0/0", 10213, 1824, Stats{Timeouts: 364, Naks: 39, Retransmissions: 32, Recovered: 364, GaveUp: 0, DeadLinks: 4, DeadNodes: 1, Detours: 32}, "c711d516b862dc970b12111c97d440962001609e08a55c7954cbeebc5270a4c4"},
	{"Q4/tauS=100/t=4/rho=0/1", 6273, 1866, Stats{Timeouts: 319, Naks: 36, Retransmissions: 31, Recovered: 319, GaveUp: 0, DeadLinks: 4, DeadNodes: 1, Detours: 31}, "10b797ee51e5f4b4ed6d44b8d22798f212daa94085eee034bb48bb0ea8b2b7ea"},
	{"Q4/tauS=100/t=4/rho=0/2", 7043, 1830, Stats{Timeouts: 316, Naks: 36, Retransmissions: 31, Recovered: 316, GaveUp: 0, DeadLinks: 4, DeadNodes: 1, Detours: 31}, "5c7e2582ec4fabb0d15fc837dc9c59383e6dbfdd6781ecdd5d71d1c917b92e17"},
	{"Q4/tauS=100/t=4/rho=0/3", 4792, 1550, Stats{Timeouts: 202, Naks: 19, Retransmissions: 16, Recovered: 202, GaveUp: 0, DeadLinks: 4, DeadNodes: 0, Detours: 16}, "9c252d9c75e1dfee9e1eac70d35f325eab7ede551009875e582e8d7b88123796"},
	{"Q4/tauS=100/t=4/rho=0.2/0", 12352, 1800, Stats{Timeouts: 210, Naks: 17, Retransmissions: 16, Recovered: 210, GaveUp: 0, DeadLinks: 4, DeadNodes: 0, Detours: 16}, "5c96cd04eb96cf371e2f41689ca615addc876e87d02c544fd01b37460a13608b"},
	{"Q4/tauS=100/t=4/rho=0.2/1", 14678, 2228, Stats{Timeouts: 292, Naks: 38, Retransmissions: 31, Recovered: 292, GaveUp: 0, DeadLinks: 4, DeadNodes: 3, Detours: 31}, "00b50be147920878a1f0c30432eb22ebe538007cc42beba8c7be3752a87d2528"},
	{"Q4/tauS=100/t=4/rho=0.2/2", 14028, 2107, Stats{Timeouts: 319, Naks: 36, Retransmissions: 31, Recovered: 319, GaveUp: 0, DeadLinks: 4, DeadNodes: 2, Detours: 31}, "dbfb2eff42e8e7470563855c61e0013faf5bf7784257d28c785a48680021ade9"},
	{"Q4/tauS=100/t=4/rho=0.2/3", 106612, 4420, Stats{Timeouts: 384, Naks: 161, Retransmissions: 153, Recovered: 155, GaveUp: 229, DeadLinks: 3, DeadNodes: 0, Detours: 31}, "c63eec13d1cb35f644803e4b6e4611e6272a94a449c27a4ed880937ee5860146"},
	{"Q4/tauS=100/t=5/rho=0/0", 105762, 3967, Stats{Timeouts: 452, Naks: 171, Retransmissions: 156, Recovered: 188, GaveUp: 264, DeadLinks: 4, DeadNodes: 0, Detours: 31}, "ad4a1bfd40e6ae963d3cd9b9a0885af904b389640ce60b0767d328b6436dbeda"},
	{"Q4/tauS=100/t=5/rho=0/1", 10955, 1936, Stats{Timeouts: 358, Naks: 45, Retransmissions: 32, Recovered: 358, GaveUp: 0, DeadLinks: 5, DeadNodes: 4, Detours: 32}, "85baa3c46d42989b2757b993274ca17e11566c6a407fa249dd277970beec4392"},
	{"Q4/tauS=100/t=5/rho=0/2", 9861, 2042, Stats{Timeouts: 332, Naks: 49, Retransmissions: 32, Recovered: 332, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 32}, "9ba9a5b400efc824f4c7497baf0222fe1ee8d388fee30b07bdbc6fa6e9ebd7a9"},
	{"Q4/tauS=100/t=5/rho=0/3", 10675, 1886, Stats{Timeouts: 369, Naks: 42, Retransmissions: 32, Recovered: 369, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 32}, "c275e039425d7f57c7ff2b4314c412fd3b6fcbcd167c4134f67c6d34edb2784f"},
	{"Q4/tauS=100/t=5/rho=0.2/0", 15614, 2250, Stats{Timeouts: 352, Naks: 40, Retransmissions: 32, Recovered: 352, GaveUp: 0, DeadLinks: 5, DeadNodes: 1, Detours: 32}, "07df190dfd2918b95e34cf5aa39b2e8824d4ee6be2e5c73ea1a46f964cc4f375"},
	{"Q4/tauS=100/t=5/rho=0.2/1", 18085, 2227, Stats{Timeouts: 375, Naks: 47, Retransmissions: 32, Recovered: 375, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 32}, "1f0a3ea9bf6a637555ec36e87179cbf164bbd9ec4aeb044fbad7996bdec641ef"},
	{"Q4/tauS=100/t=5/rho=0.2/2", 18659, 2249, Stats{Timeouts: 316, Naks: 42, Retransmissions: 32, Recovered: 316, GaveUp: 0, DeadLinks: 5, DeadNodes: 1, Detours: 32}, "5c65591fbb5b31da414cc8b5d42805f43c809a82ecef9174c9d66b51091f79dd"},
	{"Q4/tauS=100/t=5/rho=0.2/3", 15665, 2304, Stats{Timeouts: 348, Naks: 41, Retransmissions: 32, Recovered: 348, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 32}, "b0706e8ca5ef56abd9aab5b537816dc71ca19d6cb51a6c7af65dc40c75abce18"},
	{"TQ4/tauS=100/t=3/rho=0/0", 6047, 1540, Stats{Timeouts: 172, Naks: 18, Retransmissions: 16, Recovered: 172, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 16}, "b98bd1d6c3cb9daa92925eb0049d0d93ef44065826474515fb8c857b2d8dcae1"},
	{"TQ4/tauS=100/t=3/rho=0/1", 6641, 1776, Stats{Timeouts: 302, Naks: 34, Retransmissions: 31, Recovered: 302, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 31}, "685ba1d0dd5ca6b4768be6f06e597946c45fd0349183f49c835ff963e4918c1c"},
	{"TQ4/tauS=100/t=3/rho=0/2", 6482, 1835, Stats{Timeouts: 274, Naks: 35, Retransmissions: 31, Recovered: 274, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 31}, "aea96bc80bc02f34ca2e12615584efd322b88bfd9a5f362bdcbe00ebea8feb47"},
	{"TQ4/tauS=100/t=3/rho=0/3", 7048, 1809, Stats{Timeouts: 288, Naks: 34, Retransmissions: 31, Recovered: 288, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 31}, "cdf7e2d55e687d7abbb04cc0e33221fc168390ccd9428dd6c3441475ef471517"},
	{"TQ4/tauS=100/t=3/rho=0.2/0", 14588, 2083, Stats{Timeouts: 268, Naks: 36, Retransmissions: 31, Recovered: 268, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 31}, "2b59731578ef9b7fd339d1529c62386f9f1c283e68b4cdda579b995eca66b189"},
	{"TQ4/tauS=100/t=3/rho=0.2/1", 14402, 2085, Stats{Timeouts: 302, Naks: 35, Retransmissions: 31, Recovered: 302, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 31}, "9c26b447b54e18f50581fb8d66f876b844743ed3da317644b7527168ea7a68d9"},
	{"TQ4/tauS=100/t=3/rho=0.2/2", 14442, 2123, Stats{Timeouts: 300, Naks: 34, Retransmissions: 31, Recovered: 300, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 31}, "713c12ddfb8a1b219812d41b61ff2dd460e25a34a4f85c6457d6e6d881e392bf"},
	{"TQ4/tauS=100/t=3/rho=0.2/3", 14923, 2112, Stats{Timeouts: 284, Naks: 37, Retransmissions: 31, Recovered: 284, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 31}, "dff2e3ffe5873042ee7c542c63eb2c8344b9ffc3a2ad5613fb3027d1549c891c"},
	{"TQ4/tauS=100/t=4/rho=0/0", 7580, 1894, Stats{Timeouts: 290, Naks: 35, Retransmissions: 31, Recovered: 290, GaveUp: 0, DeadLinks: 4, DeadNodes: 2, Detours: 31}, "abfae817e44c9246e6fbaa25797d04e88f466c57d4f05439b9b3c127f5f86532"},
	{"TQ4/tauS=100/t=4/rho=0/1", 7143, 1871, Stats{Timeouts: 305, Naks: 34, Retransmissions: 31, Recovered: 305, GaveUp: 0, DeadLinks: 4, DeadNodes: 1, Detours: 31}, "d18506ca5fa30c154f6af3b1dff98883c77d93345ab608461d8ee6eb29c793fd"},
	{"TQ4/tauS=100/t=4/rho=0/2", 7092, 1882, Stats{Timeouts: 324, Naks: 35, Retransmissions: 31, Recovered: 324, GaveUp: 0, DeadLinks: 4, DeadNodes: 0, Detours: 31}, "85ed08fbf95e7c37f9da721e67c1e29586a6d49ddfa5befd5614e58750105aa3"},
	{"TQ4/tauS=100/t=4/rho=0/3", 9799, 1956, Stats{Timeouts: 328, Naks: 41, Retransmissions: 32, Recovered: 328, GaveUp: 0, DeadLinks: 4, DeadNodes: 0, Detours: 32}, "bbe2fe05770e9e4f81580c145a2a7043595150c24ae7443703e01e3e0b2b999d"},
	{"TQ4/tauS=100/t=4/rho=0.2/0", 15352, 2106, Stats{Timeouts: 360, Naks: 41, Retransmissions: 32, Recovered: 360, GaveUp: 0, DeadLinks: 4, DeadNodes: 0, Detours: 32}, "fc3ecc7c681954b7564bf5485bce459dd81c62f433a1b9c4ef1983154ed58ad8"},
	{"TQ4/tauS=100/t=4/rho=0.2/1", 108110, 3694, Stats{Timeouts: 290, Naks: 148, Retransmissions: 140, Recovered: 41, GaveUp: 249, DeadLinks: 2, DeadNodes: 0, Detours: 16}, "0d9a48821de2251dbba5b69ab3a483d6553800fafe011561b58d54af69c1b030"},
	{"TQ4/tauS=100/t=4/rho=0.2/2", 14468, 2246, Stats{Timeouts: 308, Naks: 37, Retransmissions: 31, Recovered: 308, GaveUp: 0, DeadLinks: 4, DeadNodes: 2, Detours: 31}, "9ede7797a4921e59552b3090638449003e5ee18e41cca2fdf596e8df16492d3a"},
	{"TQ4/tauS=100/t=4/rho=0.2/3", 17009, 2113, Stats{Timeouts: 344, Naks: 40, Retransmissions: 32, Recovered: 344, GaveUp: 0, DeadLinks: 4, DeadNodes: 2, Detours: 32}, "132de002565b1a146f1862b420f77fe4d9a084af68fd26614922056971d9c0f6"},
	{"TQ4/tauS=100/t=5/rho=0/0", 6942, 2027, Stats{Timeouts: 312, Naks: 37, Retransmissions: 31, Recovered: 312, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 31}, "44eca08c52129bebc626a2d40f211c827628e3167dd36336af53cfd256ef53ac"},
	{"TQ4/tauS=100/t=5/rho=0/1", 10207, 1924, Stats{Timeouts: 361, Naks: 41, Retransmissions: 32, Recovered: 361, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 32}, "433f357b2d08f9d12ba5bca9286b56acef23dbdbf0888b95b04435bef2e4ec62"},
	{"TQ4/tauS=100/t=5/rho=0/2", 10795, 1983, Stats{Timeouts: 326, Naks: 48, Retransmissions: 32, Recovered: 326, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 32}, "3bda69c79fc14913c80896d3ba731344af6c1515bd86792ab2b7a7087baed98e"},
	{"TQ4/tauS=100/t=5/rho=0/3", 9333, 1913, Stats{Timeouts: 376, Naks: 42, Retransmissions: 32, Recovered: 376, GaveUp: 0, DeadLinks: 5, DeadNodes: 1, Detours: 32}, "0f4f557eb9436ddc5f682e4bcb56957b74bb361549951dbc6bf2894306ab8dc2"},
	{"TQ4/tauS=100/t=5/rho=0.2/0", 14982, 2272, Stats{Timeouts: 325, Naks: 40, Retransmissions: 32, Recovered: 325, GaveUp: 0, DeadLinks: 5, DeadNodes: 1, Detours: 32}, "eb7b148dc575a5c8b1c1d93f837c61789df312176a1338136fc6e820165afe63"},
	{"TQ4/tauS=100/t=5/rho=0.2/1", 18506, 2233, Stats{Timeouts: 336, Naks: 40, Retransmissions: 32, Recovered: 336, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 32}, "a29a9808c70f9589b4e75efdee549b3a9067ad3d64ab51b1f12d87b9e160eda8"},
	{"TQ4/tauS=100/t=5/rho=0.2/2", 15301, 2340, Stats{Timeouts: 323, Naks: 43, Retransmissions: 32, Recovered: 323, GaveUp: 0, DeadLinks: 5, DeadNodes: 1, Detours: 32}, "918d49cfe75fbabb015ae759ab511f6a521eb472f90f33473792f6796c9556fd"},
	{"TQ4/tauS=100/t=5/rho=0.2/3", 18826, 2267, Stats{Timeouts: 371, Naks: 42, Retransmissions: 32, Recovered: 371, GaveUp: 0, DeadLinks: 5, DeadNodes: 1, Detours: 32}, "6c62f86c2e2da74eb133a999da4792774d3847ec1b6ba3bd46c1083008556612"},
	{"KT4x2/tauS=100/t=3/rho=0/0", 5854, 1809, Stats{Timeouts: 288, Naks: 36, Retransmissions: 31, Recovered: 288, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 31}, "cec1a525d609071c331448e6034632385a10719bd9ac04ba63740f62e77e3966"},
	{"KT4x2/tauS=100/t=3/rho=0/1", 7101, 1810, Stats{Timeouts: 300, Naks: 37, Retransmissions: 31, Recovered: 300, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 31}, "d9d89f64bfd2045479ae20b98bed40ff974053090e54f3f0283246b2f342fdbc"},
	{"KT4x2/tauS=100/t=3/rho=0/2", 6704, 1794, Stats{Timeouts: 304, Naks: 34, Retransmissions: 31, Recovered: 304, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 31}, "035a58c14285a8d9f35fdd42165a78b64e83139a20bd45d4b2e5c1507dd190e7"},
	{"KT4x2/tauS=100/t=3/rho=0/3", 6344, 1480, Stats{Timeouts: 197, Naks: 18, Retransmissions: 16, Recovered: 197, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 16}, "2f3e86990afd0cc2f1795ca924e42cf51b90114968113081b516f8beb5d9840b"},
	{"KT4x2/tauS=100/t=3/rho=0.2/0", 15694, 2122, Stats{Timeouts: 274, Naks: 37, Retransmissions: 31, Recovered: 274, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 31}, "ea3948ebffbefe04b154c192dfb5d95b89662ae43c66c3a2dc4eefd7e2afc99a"},
	{"KT4x2/tauS=100/t=3/rho=0.2/1", 13777, 2065, Stats{Timeouts: 302, Naks: 36, Retransmissions: 31, Recovered: 302, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 31}, "1927c1b95ff53bbd533d0edd8c74eeea25e35ff072f121b56766b5918fc63703"},
	{"KT4x2/tauS=100/t=3/rho=0.2/2", 14245, 2074, Stats{Timeouts: 304, Naks: 34, Retransmissions: 31, Recovered: 304, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 31}, "a843d4bd9829de6871277a6e1dddc815cc0848cf6e022df3e0ad984d5055587b"},
	{"KT4x2/tauS=100/t=3/rho=0.2/3", 12621, 1868, Stats{Timeouts: 184, Naks: 16, Retransmissions: 16, Recovered: 184, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 16}, "5b4de4027fd2e5091185c638f62299d6699f17c6dbbe543928ede8eda9464ecb"},
	{"KT4x2/tauS=100/t=4/rho=0/0", 6921, 1847, Stats{Timeouts: 362, Naks: 38, Retransmissions: 32, Recovered: 362, GaveUp: 0, DeadLinks: 4, DeadNodes: 1, Detours: 32}, "62d03c58b6bd1825f943b1c53158723f8454997be50bd0f6178673682385cb70"},
	{"KT4x2/tauS=100/t=4/rho=0/1", 7013, 1983, Stats{Timeouts: 303, Naks: 36, Retransmissions: 31, Recovered: 303, GaveUp: 0, DeadLinks: 4, DeadNodes: 2, Detours: 31}, "eae53bf0dfa435b76c26c59569c8ac46f0012cb12c5b1fc4a8dbe70a2923f835"},
	{"KT4x2/tauS=100/t=4/rho=0/2", 10755, 1828, Stats{Timeouts: 366, Naks: 41, Retransmissions: 32, Recovered: 366, GaveUp: 0, DeadLinks: 4, DeadNodes: 1, Detours: 32}, "2b5b885c78a5fc772f5e8112fdf6b56247ca519ab8652ae5d3146b6f9789aed1"},
	{"KT4x2/tauS=100/t=4/rho=0/3", 7349, 1850, Stats{Timeouts: 320, Naks: 36, Retransmissions: 31, Recovered: 320, GaveUp: 0, DeadLinks: 4, DeadNodes: 0, Detours: 31}, "9f6877fecdbf4746ace0aff6e2abd506e098816b12d5b63a0305f1ff6bfc7d66"},
	{"KT4x2/tauS=100/t=4/rho=0.2/0", 14114, 2133, Stats{Timeouts: 325, Naks: 35, Retransmissions: 31, Recovered: 325, GaveUp: 0, DeadLinks: 4, DeadNodes: 0, Detours: 31}, "f4b6771830a6411128dbaa737a26ea29aea48410ad6e76f7af5b246d5405f131"},
	{"KT4x2/tauS=100/t=4/rho=0.2/1", 15547, 2276, Stats{Timeouts: 292, Naks: 37, Retransmissions: 31, Recovered: 292, GaveUp: 0, DeadLinks: 4, DeadNodes: 1, Detours: 31}, "b1c1aa286e9faa70f092cd9a81c2b71e7da0bccd29d7929d5713a97a81e99561"},
	{"KT4x2/tauS=100/t=4/rho=0.2/2", 14130, 2165, Stats{Timeouts: 294, Naks: 34, Retransmissions: 31, Recovered: 294, GaveUp: 0, DeadLinks: 4, DeadNodes: 1, Detours: 31}, "b2720998f01255487af1aa6aec250ab72817d080d187f3340e6b5ba5cb263156"},
	{"KT4x2/tauS=100/t=4/rho=0.2/3", 121315, 4248, Stats{Timeouts: 308, Naks: 149, Retransmissions: 146, Recovered: 83, GaveUp: 225, DeadLinks: 3, DeadNodes: 0, Detours: 16}, "c92150058ce30183722ce26ae31593ef54b1059454a9c549c7e6a417414dded6"},
	{"KT4x2/tauS=100/t=5/rho=0/0", 95734, 3327, Stats{Timeouts: 438, Naks: 170, Retransmissions: 150, Recovered: 169, GaveUp: 269, DeadLinks: 4, DeadNodes: 1, Detours: 32}, "7b32ec7a58f87a613e8421e617b8ed886434c04b97476301de0a7a504ed5731e"},
	{"KT4x2/tauS=100/t=5/rho=0/1", 7203, 1886, Stats{Timeouts: 350, Naks: 41, Retransmissions: 32, Recovered: 350, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 32}, "97f906de485dab38da39ce93043845b40e28be557723c74199d80e5b17f05330"},
	{"KT4x2/tauS=100/t=5/rho=0/2", 7882, 1905, Stats{Timeouts: 333, Naks: 41, Retransmissions: 32, Recovered: 333, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 32}, "6f84713dd7980a194d6f1ff72c1ea23ff208f45bb622ede61b84cc173bb7f558"},
	{"KT4x2/tauS=100/t=5/rho=0/3", 10170, 1842, Stats{Timeouts: 382, Naks: 44, Retransmissions: 32, Recovered: 382, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 32}, "b8b699e33af30e70351d0eb32997c474ca9c2fe4574a487075e921237e8503a2"},
	{"KT4x2/tauS=100/t=5/rho=0.2/0", 15030, 2216, Stats{Timeouts: 363, Naks: 40, Retransmissions: 32, Recovered: 363, GaveUp: 0, DeadLinks: 5, DeadNodes: 1, Detours: 32}, "9f09c5696533761de41ddf0c2c3e3f79591eeef325b138a679914f28b0b55dad"},
	{"KT4x2/tauS=100/t=5/rho=0.2/1", 18774, 2239, Stats{Timeouts: 380, Naks: 43, Retransmissions: 32, Recovered: 380, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 32}, "155656b2216de51395a1d16bf7dc810199e499fd9e435b7d2d13d73368fa2dfd"},
	{"KT4x2/tauS=100/t=5/rho=0.2/2", 16017, 2379, Stats{Timeouts: 326, Naks: 37, Retransmissions: 31, Recovered: 326, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 31}, "07364654c9c388b43e672509fe9da8c6936c63c8a6e0e48a988fa572897feaa9"},
	{"KT4x2/tauS=100/t=5/rho=0.2/3", 102857, 3542, Stats{Timeouts: 469, Naks: 168, Retransmissions: 138, Recovered: 218, GaveUp: 251, DeadLinks: 4, DeadNodes: 0, Detours: 32}, "0a28c732cd3bb02053ecf5d71aa9bf0be23307bbc198a812d1f304036894f96d"},
	{"SQ4/tauS=0/t=3/rho=0/0", 3384, 2496, Stats{Timeouts: 576, Naks: 70, Retransmissions: 64, Recovered: 576, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 0}, "dd23265a1a61840d54070b0fb5950cab964644c7d60bcb00dab04cd85444f202"},
	{"SQ4/tauS=0/t=3/rho=0/1", 4006, 2643, Stats{Timeouts: 558, Naks: 81, Retransmissions: 71, Recovered: 558, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 0}, "b4f478648445cfec53f81b024999f3d2a1a9b46c07e2581bd4dd7953dfda12da"},
	{"SQ4/tauS=0/t=3/rho=0.2/0", 6167, 2833, Stats{Timeouts: 590, Naks: 68, Retransmissions: 62, Recovered: 590, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 0}, "1d90b1b3bbcd291a4f2767e9a1ca77118424a2d94d237987a7052b151b32fc8f"},
	{"SQ4/tauS=0/t=3/rho=0.2/1", 5346, 2900, Stats{Timeouts: 606, Naks: 67, Retransmissions: 63, Recovered: 606, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 0}, "29f5011f8687e55c56c30ae076777d6cfb1109dc6624a851c57ed60ac6d6cb32"},
	{"SQ4/tauS=0/t=4/rho=0/0", 3638, 2489, Stats{Timeouts: 634, Naks: 72, Retransmissions: 63, Recovered: 634, GaveUp: 0, DeadLinks: 4, DeadNodes: 1, Detours: 0}, "2af945bbe54cae11b0d997b4ef182fe3d8953316040ac1bcf5ee51470f0a97ed"},
	{"SQ4/tauS=0/t=4/rho=0/1", 4718, 2751, Stats{Timeouts: 602, Naks: 78, Retransmissions: 69, Recovered: 602, GaveUp: 0, DeadLinks: 4, DeadNodes: 2, Detours: 0}, "c80ca6e4b425d9036abe02f67cbf814050cf89846e631fd76ef85b891647ca01"},
	{"SQ4/tauS=0/t=4/rho=0.2/0", 5446, 3067, Stats{Timeouts: 626, Naks: 68, Retransmissions: 64, Recovered: 626, GaveUp: 0, DeadLinks: 4, DeadNodes: 0, Detours: 0}, "00af7aa17c0044ee0102196a56f83949269243b17f34bbbb31199f6eeb168854"},
	{"SQ4/tauS=0/t=4/rho=0.2/1", 7903, 3264, Stats{Timeouts: 582, Naks: 77, Retransmissions: 67, Recovered: 582, GaveUp: 0, DeadLinks: 4, DeadNodes: 1, Detours: 0}, "1605ec72651cd74d4975ec37eceee89e620a9428ac63140e1c8e17596c1cd20e"},
	{"SQ4/tauS=0/t=5/rho=0/0", 4037, 2632, Stats{Timeouts: 688, Naks: 84, Retransmissions: 67, Recovered: 688, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 0}, "e17e2ad42b7745914b84e233399d9918761a67e63406abb82806b21f4bb99976"},
	{"SQ4/tauS=0/t=5/rho=0/1", 3664, 2516, Stats{Timeouts: 778, Naks: 83, Retransmissions: 64, Recovered: 778, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 0}, "eae14d1b21ca1c26d2010ec525d26e4a19b785d8dc9519bc32efc0a3d66a8462"},
	{"SQ4/tauS=0/t=5/rho=0.2/0", 6670, 3039, Stats{Timeouts: 708, Naks: 77, Retransmissions: 66, Recovered: 708, GaveUp: 0, DeadLinks: 5, DeadNodes: 1, Detours: 0}, "859ef39d4c0dd9a1ffcb0189ae918176a9e6c97a11038ca70d802bda14d70dda"},
	{"SQ4/tauS=0/t=5/rho=0.2/1", 6558, 3091, Stats{Timeouts: 638, Naks: 76, Retransmissions: 64, Recovered: 638, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 0}, "03ee7886762dc6408af42df797552807d6df3d0df985ac2a08a89001dc7d2660"},
	{"Q4/tauS=0/t=3/rho=0/0", 2327, 1759, Stats{Timeouts: 394, Naks: 32, Retransmissions: 32, Recovered: 394, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 0}, "4f6fa7924d80cc9ba8b349dc822c1730ae1e9df7f918272d33352aa8c2bf17c6"},
	{"Q4/tauS=0/t=3/rho=0/1", 2367, 1822, Stats{Timeouts: 392, Naks: 33, Retransmissions: 32, Recovered: 392, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 0}, "19826092cdfccc91a18b6409142ae581afa76133bca015b1141e90e665c02f03"},
	{"Q4/tauS=0/t=3/rho=0.2/0", 6351, 3143, Stats{Timeouts: 600, Naks: 77, Retransmissions: 70, Recovered: 600, GaveUp: 0, DeadLinks: 3, DeadNodes: 1, Detours: 0}, "cc094e246d757bad596f44be307552f05466ac3e7add85d72dbdad14a6070a9b"},
	{"Q4/tauS=0/t=3/rho=0.2/1", 5195, 2861, Stats{Timeouts: 606, Naks: 67, Retransmissions: 63, Recovered: 606, GaveUp: 0, DeadLinks: 3, DeadNodes: 0, Detours: 0}, "7e8460658ab2ed54cfbc6e27557a6f735e5c72c59eff30642cb5c19190f51733"},
	{"Q4/tauS=0/t=4/rho=0/0", 3644, 2422, Stats{Timeouts: 726, Naks: 81, Retransmissions: 65, Recovered: 726, GaveUp: 0, DeadLinks: 4, DeadNodes: 1, Detours: 0}, "6ba505c970f2ff0cecc352009e3bb9ab62f33785a994f9161b779302b8a1f383"},
	{"Q4/tauS=0/t=4/rho=0/1", 3550, 2566, Stats{Timeouts: 642, Naks: 74, Retransmissions: 64, Recovered: 642, GaveUp: 0, DeadLinks: 4, DeadNodes: 1, Detours: 0}, "918ea24f40bd3cb91a64e851e1e29a0b51e11e57e17cf182f452afa479e80c43"},
	{"Q4/tauS=0/t=4/rho=0.2/0", 4851, 2183, Stats{Timeouts: 422, Naks: 34, Retransmissions: 32, Recovered: 422, GaveUp: 0, DeadLinks: 4, DeadNodes: 0, Detours: 0}, "3cedf2a6633565a05d198cc20c03f10e45ff31959ae994a9b114329e0dd9dde4"},
	{"Q4/tauS=0/t=4/rho=0.2/1", 6473, 3124, Stats{Timeouts: 582, Naks: 77, Retransmissions: 67, Recovered: 582, GaveUp: 0, DeadLinks: 4, DeadNodes: 3, Detours: 0}, "1dddf05c2d54d28acabf1751e53ce9b6096bf72ee0efee8b40e83e1a20ef4c6c"},
	{"Q4/tauS=0/t=5/rho=0/0", 3588, 2650, Stats{Timeouts: 642, Naks: 75, Retransmissions: 62, Recovered: 642, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 0}, "6bb91b9e3a181ce3daaaa36b617d74213d2320a2616598889d88c17e323cb999"},
	{"Q4/tauS=0/t=5/rho=0/1", 3943, 2576, Stats{Timeouts: 724, Naks: 84, Retransmissions: 68, Recovered: 724, GaveUp: 0, DeadLinks: 5, DeadNodes: 4, Detours: 0}, "f44995c7fa8026d192d01e6b217da20ad6f0fa12f66df8ae4250b909f664f552"},
	{"Q4/tauS=0/t=5/rho=0.2/0", 6707, 2982, Stats{Timeouts: 708, Naks: 76, Retransmissions: 64, Recovered: 708, GaveUp: 0, DeadLinks: 5, DeadNodes: 1, Detours: 0}, "c44e14b9340d497efac9488d6c00c18f776d1dc63cff886a58611de0d155c2a2"},
	{"Q4/tauS=0/t=5/rho=0.2/1", 6474, 2888, Stats{Timeouts: 746, Naks: 88, Retransmissions: 64, Recovered: 746, GaveUp: 0, DeadLinks: 5, DeadNodes: 2, Detours: 0}, "0ad820e7a026937ccc6a209951244bb6af6ff7e6287352f3091aef1ca3b5c2d0"},
}
