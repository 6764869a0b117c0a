package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from statistics.quantiles(data, n=4).
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func writeRun(t *testing.T, dir, workload string, seed int, cps float64) {
	t.Helper()
	body := fmt.Sprintf(`{"perfbench":%q,"seed":%d,"trace":false}
{"correct":true,"attempted":1,"failed":0,"metrics":{"cells_per_s":{"value":%g,"unit":"1/s"}}}
`, workload, seed, cps)
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", workload, seed)), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"cells_per_s","unit":"1/s","better":"higher","bound":0.1}],"per_layer":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a, b, c := filepath.Join(dir, "a"), filepath.Join(dir, "b"), filepath.Join(dir, "c")
	for _, d := range []string{a, b, c} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for s := 1; s <= 5; s++ {
		writeRun(t, a, "testbed", s, 100+float64(s))
		writeRun(t, b, "testbed", s, 101+float64(s))
		writeRun(t, c, "testbed", s, 80+float64(s))
	}
	var out bytes.Buffer
	code, err := compare(&out, spec, []string{a, b})
	if err != nil || code != 0 {
		t.Fatalf("A vs B: code %d, err %v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "5/5") {
		t.Errorf("B should win all five pairs:\n%s", out.String())
	}
	out.Reset()
	code, err = compare(&out, spec, []string{a, c})
	if err != nil || code != 1 || !strings.Contains(out.String(), "B worse") {
		t.Fatalf("A vs C: code %d, err %v, want a regression\n%s", code, err, out.String())
	}
}
