package daemon

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"

	"coterie/internal/obs"
	"coterie/internal/obs/expose"
)

// Health is the JSON body served at /healthz: enough for an operator (or
// loadgen's readiness poll, or cotop's cluster view) to tell what this
// process is, whether it is recovering, and which slice of the keyspace it
// owns. A daemon that answers at all is serving traffic — the transport
// listener starts before the admin listener — so any 200 means ready.
type Health struct {
	Status     string `json:"status"` // always "ok" when served
	Node       int    `json:"node"`
	Recovering bool   `json:"recovering"`

	// The map this daemon serves and its slice of it.
	MapVersion  uint64 `json:"map_version,omitempty"`
	NumShards   int    `json:"num_shards,omitempty"`
	RF          int    `json:"rf,omitempty"`
	OwnedShards []int  `json:"owned_shards,omitempty"`
	LiveCoords  int    `json:"live_coordinators"`
}

// Health reports the daemon's current health/ownership snapshot — the same
// data /healthz serves, for in-process harnesses.
func (d *Daemon) Health() Health {
	h := Health{
		Status:     "ok",
		Node:       int(d.cfg.Self),
		Recovering: d.cfg.Recovering,
		MapVersion: d.pmap.Version(),
		NumShards:  d.pmap.NumShards(),
		RF:         d.pmap.RF(),
		LiveCoords: d.LiveCoordinators(),
	}
	for _, s := range d.pmap.OwnedShards(d.cfg.Self) {
		h.OwnedShards = append(h.OwnedShards, int(s))
	}
	sort.Ints(h.OwnedShards)
	return h
}

// AdminAddr returns the admin listener's bound address ("" when disabled).
// With Config.AdminAddr ":0" this is how the spawner learns the real port.
func (d *Daemon) AdminAddr() string {
	if d.aln == nil {
		return ""
	}
	return d.aln.Addr().String()
}

// AdminMux assembles the admin-plane routes over this daemon's registry.
// Split from startAdmin so tests and embedding harnesses can serve the
// exact production surface on a listener they control.
func (d *Daemon) AdminMux() *http.ServeMux {
	mux := PprofMux()
	mux.Handle("/metrics", expose.Handler(d.Reg))
	mux.Handle("/traces", expose.TracesHandler(d.Reg))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(d.Health())
	})
	return mux
}

// startAdmin binds and serves the admin plane. Mutex profiling is enabled
// as for the standalone pprof listener, so /debug/pprof/mutex carries data.
func (d *Daemon) startAdmin(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("daemon: admin listener: %w", err)
	}
	if d.Reg != obs.Nop {
		runtime.SetMutexProfileFraction(100)
	}
	d.aln = ln
	d.admin = &http.Server{Handler: d.AdminMux()}
	go func() { _ = d.admin.Serve(ln) }()
	return nil
}
