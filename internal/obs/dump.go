package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// TraceDump is the offline-analysis container behind -trace-out flags and
// chaos dumps: the deployment's retained spans, how many more the bounded
// rings dropped, and a final metrics snapshot. cmd/gvfs-trace loads it to
// print attribution and staleness reports without re-running anything.
type TraceDump struct {
	Spans   []Span   `json:"spans"`
	Dropped uint64   `json:"dropped_spans,omitempty"`
	Metrics Snapshot `json:"metrics"`
}

// Dump assembles a TraceDump from the deployment's current state. Callers
// that fold extra gauges into the registry first (Deployment.PublishMetrics)
// should pass the resulting snapshot instead via DumpWith.
func (o *Obs) Dump() TraceDump {
	return o.DumpWith(o.Registry().Snapshot())
}

// DumpWith assembles a TraceDump around an already-taken metrics snapshot.
func (o *Obs) DumpWith(snap Snapshot) TraceDump {
	return TraceDump{Spans: o.Spans(), Dropped: o.DroppedSpans(), Metrics: snap}
}

// Write serializes the dump as indented JSON.
func (d TraceDump) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadTraceDump parses a dump written by Write. A field Write does not
// emit is refused: spans of older dumps kept their waits in a free-text
// "detail", which attribution would otherwise silently read as zero.
func ReadTraceDump(r io.Reader) (TraceDump, error) {
	var d TraceDump
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return d, fmt.Errorf("trace dump: %w", err)
	}
	return d, nil
}
