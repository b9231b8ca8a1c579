package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
)

// writeSpans writes the span store as a Chrome trace-event file
// (chrome://tracing, Perfetto): one complete event per span, one track
// per traced run, each span's store index and parent in its args, and
// the machine record under otherData.
func writeSpans(path string, m machine, s *spanStore) error {
	type args struct {
		ID     int   `json:"id"`
		Parent int32 `json:"parent"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`  // µs
		Dur  float64 `json:"dur"` // µs
		PID  int     `json:"pid"`
		TID  int32   `json:"tid"`
		Args args    `json:"args"`
	}
	doc := struct {
		TraceEvents []event `json:"traceEvents"`
		OtherData   machine `json:"otherData"`
	}{TraceEvents: make([]event, 0, len(s.spans)), OtherData: m}
	for i, sp := range s.spans {
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: spanNames[sp.name], Ph: "X",
			TS: float64(sp.start) / 1e3, Dur: float64(sp.end-sp.start) / 1e3,
			PID: 1, TID: sp.run, Args: args{ID: i, Parent: sp.parent},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
