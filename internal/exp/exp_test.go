package exp

import (
	"bytes"
	"strings"
	"testing"
)

// tiny returns parameters small enough for CI but large enough to cross
// several resizes.
func tiny() (Params, *bytes.Buffer) {
	var buf bytes.Buffer
	p := Params{N: 1 << 13, Seed: 7, Out: &buf}
	return p, &buf
}

// Every figure runner must execute end-to-end and print its series.
func TestFigureRunnersSmoke(t *testing.T) {
	for _, f := range Figures {
		t.Run(f.Name, func(t *testing.T) {
			p, buf := tiny()
			f.Run(p)
			out := buf.String()
			if !strings.Contains(out, "## Fig") {
				t.Fatalf("%s printed no header:\n%s", f.Name, out)
			}
			if len(strings.Split(out, "\n")) < 4 {
				t.Fatalf("%s printed too little:\n%s", f.Name, out)
			}
		})
	}
	_ = Sink()
}

func TestFeatureChainCovered(t *testing.T) {
	chain := FeatureChain()
	if len(chain) != 6 {
		t.Fatalf("chain has %d steps, want 6 (baseline + 5 features)", len(chain))
	}
	// Each step must actually change the configuration.
	for i := 1; i < len(chain); i++ {
		if chain[i].Cfg == chain[i-1].Cfg {
			t.Fatalf("step %q does not change the configuration", chain[i].Name)
		}
	}
}

func TestRelatedWorkConfigsValid(t *testing.T) {
	for _, rw := range RelatedWorkConfigs() {
		if err := rw.Cfg.Validate(); err != nil {
			t.Errorf("%s: %v", rw.Name, err)
		}
	}
}

func TestScanThroughputCoversRequestedFraction(t *testing.T) {
	p, _ := tiny()
	m := mustCore(RMAConfig(32))
	keys := make([]int64, 0, p.N)
	for i := 0; i < p.N; i++ {
		m.InsertKV(int64(i), 0)
		keys = append(keys, int64(i))
	}
	if v := scanThroughput(m, keys, 1, 0.01); v <= 0 {
		t.Fatal("scan throughput must be positive")
	}
}
