package experiments

import (
	"strings"
	"testing"
)

// microScale is an even smaller configuration than CI for unit tests.
func microScale() Scale {
	s := CI()
	s.Name = "micro"
	s.DataScale = 0.06
	s.Rounds = 4
	s.SmallN = 6
	s.LargeN = 8
	s.K = 4
	s.Epochs = 1
	s.KSweep = []int{2, 4}
	s.Deltas = []float64{0.3, 0.6}
	return s
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"ci", "medium", "paper"} {
		s, err := ScaleByName(name)
		if err != nil || s.Name != name {
			t.Fatalf("ScaleByName(%q) = %+v, %v", name, s, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Fatal("unknown scale did not error")
	}
}

func TestScalesAreConsistent(t *testing.T) {
	for _, s := range []Scale{CI(), Medium(), Paper()} {
		if s.Rounds <= 0 || s.SmallN <= 0 || s.LargeN < s.SmallN || s.K <= 0 {
			t.Fatalf("scale %q inconsistent: %+v", s.Name, s)
		}
		if len(s.KSweep) == 0 || len(s.Deltas) == 0 {
			t.Fatalf("scale %q missing sweeps", s.Name)
		}
		if len(s.datasets()) != 3 {
			t.Fatalf("scale %q dataset count", s.Name)
		}
	}
}

func TestLabelsPerClient(t *testing.T) {
	s := CI()
	ds := s.datasets()
	if labelsPerClient(ds[0]) != 20 { // cifar100-sim
		t.Fatal("100-class dataset should use 20 labels/client")
	}
	if labelsPerClient(ds[2]) != 2 { // mnist-sim
		t.Fatal("10-class dataset should use 2 labels/client")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "table3", "table4",
		"figure4", "figure5", "figure6", "figure7", "figure8", "figure9", "figure10",
		"ablation-reward", "ablation-statenorm", "ablation-twostage",
		"ablation-prior", "comm-overhead", "headline", "async-sync",
		"byzantine",
	}
	for _, n := range want {
		if _, ok := Registry[n]; !ok {
			t.Fatalf("experiment %q missing from registry", n)
		}
	}
	if len(Names()) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Names()), len(want))
	}
	if _, err := Run("nope", microScale(), 1); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestTable2Output(t *testing.T) {
	out := Table2(microScale(), 1)
	for _, want := range []string{"PA", "CE", "CN", "ClusterSkew"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table2 missing %q:\n%s", want, out)
		}
	}
	// CE row must flag cluster skew.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "CE") && !strings.Contains(line, "yes") {
			t.Fatalf("CE row does not flag cluster skew: %s", line)
		}
	}
}

func TestFigure4Output(t *testing.T) {
	out := Figure4(microScale(), 1)
	if strings.Count(out, "partition,") != 3 {
		t.Fatalf("Figure4 should render 3 partitions:\n%s", out)
	}
}

func TestTable3Micro(t *testing.T) {
	s := microScale()
	res := RunTable3(s, 3)
	// 3 datasets × 2 sizes × 3 partitions cells.
	if len(res.Cells) != 18 {
		t.Fatalf("Table3 cells = %d, want 18", len(res.Cells))
	}
	for _, c := range res.Cells {
		for _, m := range Methods {
			acc := c.Best[m]
			if acc < 0 || acc > 100 {
				t.Fatalf("cell %s/%s/%d method %s acc %v out of range", c.Dataset, c.Partition, c.N, m, acc)
			}
		}
	}
	out := res.Render()
	for _, want := range []string{"cifar100-sim", "fashion-sim", "mnist-sim", "impr.(a)", "impr.(b)", "FedDRL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table3 render missing %q", want)
		}
	}
}

func TestFigure5Micro(t *testing.T) {
	out := Figure5(microScale(), 5)
	if !strings.Contains(out, "fashion-sim / CE") || !strings.Contains(out, "round") {
		t.Fatalf("Figure5 output malformed:\n%s", out)
	}
	if strings.Contains(out, "mnist-sim") {
		t.Fatal("Figure5 should omit mnist-sim like the paper")
	}
}

func TestFigure6Micro(t *testing.T) {
	out := Figure6(microScale(), 7)
	if !strings.Contains(out, "normalized to FedDRL") {
		t.Fatalf("Figure6 header missing:\n%s", out)
	}
	// FedDRL's own normalized row must be 1.00 everywhere.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "FedDRL") {
			for _, cell := range strings.Fields(line)[1:] {
				if cell != "1.00" {
					t.Fatalf("FedDRL normalized cell %q != 1.00", cell)
				}
			}
		}
	}
}

func TestFigure7And8Micro(t *testing.T) {
	s := microScale()
	out7 := Figure7(s, 9)
	if !strings.Contains(out7, "K") || !strings.Contains(out7, "FedDRL") {
		t.Fatalf("Figure7 malformed:\n%s", out7)
	}
	if got := strings.Count(out7, "\n"); got < 4 {
		t.Fatalf("Figure7 too short:\n%s", out7)
	}
	out8 := Figure8(s, 11)
	if !strings.Contains(out8, "delta") || !strings.Contains(out8, "0.6") {
		t.Fatalf("Figure8 malformed:\n%s", out8)
	}
}

func TestFigure9Micro(t *testing.T) {
	out := Figure9(microScale(), 13)
	if !strings.Contains(out, "SimpleCNN") || !strings.Contains(out, "VGGMini") {
		t.Fatalf("Figure9 missing models:\n%s", out)
	}
	if !strings.Contains(out, "DRL decision") || !strings.Contains(out, "aggregation") {
		t.Fatalf("Figure9 missing columns:\n%s", out)
	}
}

func TestFigure10Micro(t *testing.T) {
	out := Figure10(microScale(), 15)
	if !strings.Contains(out, "target") || !strings.Contains(out, "mnist-sim") {
		t.Fatalf("Figure10 malformed:\n%s", out)
	}
}

func TestTable4Micro(t *testing.T) {
	out := Table4(microScale(), 17)
	if !strings.Contains(out, "Equal") || !strings.Contains(out, "Non-equal") {
		t.Fatalf("Table4 malformed:\n%s", out)
	}
	if !strings.Contains(out, "SingleSet") {
		t.Fatal("Table4 missing SingleSet reference")
	}
}

func TestAblationsMicro(t *testing.T) {
	s := microScale()
	for _, name := range []string{"ablation-reward", "ablation-statenorm"} {
		out := runNamed(name, s, 19)
		if !strings.Contains(out, "Ablation") {
			t.Fatalf("%s ablation malformed:\n%s", name, out)
		}
	}
}

func TestAblationTwoStageMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("two-stage ablation is the slowest experiment")
	}
	out := runNamed("ablation-twostage", microScale(), 21)
	if !strings.Contains(out, "two-stage pre-trained") || !strings.Contains(out, "cold start") {
		t.Fatalf("two-stage ablation malformed:\n%s", out)
	}
}

func TestFLEnvContract(t *testing.T) {
	s := microScale()
	spec := s.datasets()[2] // mnist-sim
	drlCfg := s.drlConfig(4, 23)
	env := newFLEnv(s, spec, drlCfg, 23, 2)
	st := env.Reset()
	if len(st) != drlCfg.StateDim() {
		t.Fatalf("env state dim %d, want %d", len(st), drlCfg.StateDim())
	}
	action := make([]float64, drlCfg.ActionDim())
	st2, r, done := env.Step(action)
	if len(st2) != drlCfg.StateDim() {
		t.Fatal("env next-state dim wrong")
	}
	if r >= 0 {
		t.Fatalf("Eq. 7 reward should be negative for positive losses, got %v", r)
	}
	if done {
		t.Fatal("episode ended after one of two rounds")
	}
	_, _, done = env.Step(action)
	if !done {
		t.Fatal("episode did not end after the configured rounds")
	}
}

func TestArtifactStoreHits(t *testing.T) {
	s := microScale()
	st := newStore(s)
	defer st.close()
	ds := s.datasets()[2]
	ce := table3Spec(s, ds.Name, "CE", "FedAvg", s.SmallN, 25)
	r1 := st.get(ce)
	r2 := st.get(ce)
	if r1 != r2 {
		t.Fatal("store did not reuse the run")
	}
	cn := table3Spec(s, ds.Name, "CN", "FedAvg", s.SmallN, 25)
	if st.get(cn) == r1 {
		t.Fatal("store conflated distinct cells")
	}
}

func TestDatasetByName(t *testing.T) {
	s := microScale()
	for _, name := range []string{"fashion", "fashion-sim"} {
		if spec, err := s.datasetByName(name); err != nil || spec.Name != "fashion-sim" {
			t.Fatalf("datasetByName(%q) = %q, %v", name, spec.Name, err)
		}
	}
	for _, name := range []string{"imagenet", "", "fash", "fashion-sim-sim"} {
		if _, err := s.datasetByName(name); err == nil {
			t.Fatalf("datasetByName(%q) accepted", name)
		}
	}
}
