package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json tells the driver what spec.go tells the program; the two
// must say the same thing.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricSpec                 `json:"end_to_end"`
		PerLayer  []metricSpec                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var names []struct{ Name, Why string }
	for _, w := range workloads() {
		names = append(names, struct{ Name, Why string }{w.name, w.why})
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(file.Workloads, names) {
		t.Errorf("workloads differ:\n json %v\n code %v", file.Workloads, names)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEndSpec) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", file.EndToEnd, endToEndSpec)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayerSpec) {
		t.Errorf("per_layer differs:\n json %v\n code %v", file.PerLayer, perLayerSpec)
	}
	setup := endToEndSpec[0]
	for _, s := range endToEndSpec {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		if s.Bound > setup.Bound {
			t.Errorf("%s: bound %v above setup_s's %v, which is to be the largest", s.Name, s.Bound, setup.Bound)
		}
	}
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", setup)
	}
}
