package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// The result line's blocks are the manifest's metrics, in its order:
// a metric added to one and not the other would be missing from every
// run's result.
func TestMetricNamesMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, x := range ms {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(m.EndToEnd); !reflect.DeepEqual(got, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end = %v, e2eMetrics = %v", got, e2eMetrics)
	}
	if got := names(m.PerLayer); !reflect.DeepEqual(got, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer = %v, layerMetrics = %v", got, layerMetrics)
	}
}

// pick keeps the named metrics in the names' order, reports those
// without a value as missing, and returns everything unnamed as the
// rest.
func TestPick(t *testing.T) {
	ms := []metric{{"b", 2, "s"}, {"x", 9, "1"}, {"a", 1, "s"}, {"c", math.NaN(), "s"}}
	picked, rest, missing := pick(ms, []string{"a", "b", "c", "d"})
	if want := []metric{{"a", 1, "s"}, {"b", 2, "s"}}; !reflect.DeepEqual(picked, want) {
		t.Errorf("picked = %v, want %v", picked, want)
	}
	if want := []metric{{"x", 9, "1"}}; !reflect.DeepEqual(rest, want) {
		t.Errorf("rest = %v, want %v", rest, want)
	}
	if want := []string{"c", "d"}; !reflect.DeepEqual(missing, want) {
		t.Errorf("missing = %v, want %v", missing, want)
	}
}
