package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"coterie/internal/core"
	"coterie/internal/daemon"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/replica"
	"coterie/internal/transport"
)

// simPlane is the in-process data plane: one replica node per member over
// the simulated network, every node replicating every item and hosting a
// coordinator per item, like the paper's symmetric deployment.
type simPlane struct {
	cfg    config
	netw   *transport.Network
	nodes  []*replica.Node
	coords [][]*core.Coordinator // [item][node]
}

func newSimPlane(cfg config, strategy core.QuorumStrategy, reg *obs.Registry) (*simPlane, error) {
	if reg != obs.Nop {
		reg.SetFlight(obs.NewFlightRecorder(cfg.traceCap))
	}
	tOpts := []transport.Option{transport.WithSeed(cfg.seed)}
	if reg != obs.Nop {
		tOpts = append(tOpts, transport.WithObs(reg))
	}
	if cfg.latency > 0 {
		mean := cfg.latency
		tOpts = append(tOpts, transport.WithLatency(func(r *rand.Rand) time.Duration {
			return mean/2 + time.Duration(r.Int63n(int64(mean)))
		}))
	}
	netw := transport.NewNetwork(tOpts...)
	members := nodeset.Range(0, nodeset.ID(cfg.nodes))

	// Lock leases follow the coordinator's round timeout (core's default
	// relation): conflicting operations that wedge each other's quorum
	// locks resolve on the lease, so a short round timeout keeps the
	// closed loop moving instead of measuring lease expiries.
	var caps map[nodeset.ID]float64
	if cfg.capacity != "" {
		var err error
		if caps, err = daemon.ParseCapacities(cfg.capacity); err != nil {
			return nil, err
		}
	}
	rcfg := replica.Config{LockLease: 4 * cfg.callTimeout, Obs: reg, PropagationBatch: cfg.batchProp}
	copts := core.Options{
		CallTimeout: cfg.callTimeout,
		Obs:         reg,
		Replica:     rcfg,
		// One engine across every coordinator of every item: they all
		// steer by the same observed load, and per-coordinator engines
		// would multiply the solves by nodes×items.
		Engine:      core.NewStrategyEngine(strategy, netw, members, caps, reg),
		GroupCommit: cfg.batch,
	}
	p := &simPlane{cfg: cfg, netw: netw, nodes: make([]*replica.Node, cfg.nodes)}
	for i := range p.nodes {
		p.nodes[i] = replica.NewNode(nodeset.ID(i), netw, rcfg)
	}
	if cfg.slowRead > 0 && cfg.slowNode >= 0 && cfg.slowNode < cfg.nodes {
		// A weak node: every protocol message it serves takes -slow-read
		// longer. Registering over the node's own handler keeps the wrap
		// transparent to the protocol; only service time changes.
		inner := p.nodes[cfg.slowNode].Handler()
		delay := cfg.slowRead
		netw.Register(nodeset.ID(cfg.slowNode), func(ctx context.Context, from nodeset.ID, req transport.Message) (transport.Message, error) {
			time.Sleep(delay)
			return inner(ctx, from, req)
		})
		fmt.Fprintf(os.Stderr, "loadgen: node %d serves every message %s slower\n", cfg.slowNode, delay)
	}
	p.coords = make([][]*core.Coordinator, cfg.items)
	for it := range p.coords {
		name := keyName(it)
		p.coords[it] = make([]*core.Coordinator, cfg.nodes)
		for i, n := range p.nodes {
			rep, err := n.AddItem(name, members, make([]byte, cfg.itemSize))
			if err != nil {
				p.close()
				return nil, err
			}
			p.coords[it][i] = core.NewCoordinator(rep, netw, members, copts)
		}
	}
	return p, nil
}

func (p *simPlane) read(ctx context.Context, item, node int) error {
	opCtx, cancel := context.WithTimeout(ctx, p.cfg.timeout)
	defer cancel()
	_, _, err := p.coords[item][node].Read(opCtx)
	return err
}

func (p *simPlane) write(ctx context.Context, item, node int, u replica.Update) error {
	opCtx, cancel := context.WithTimeout(ctx, p.cfg.timeout)
	defer cancel()
	_, err := p.coords[item][node].Write(opCtx, u)
	return err
}

func (p *simPlane) checkEpoch(ctx context.Context, item, node int) {
	_, _ = p.coords[item][node].CheckEpoch(ctx)
}

func (p *simPlane) crash(node int) {
	p.netw.Crash(nodeset.ID(node))
}

func (p *simPlane) restart(node int) error {
	p.netw.Restart(nodeset.ID(node))
	return nil
}

func (p *simPlane) finish(*result) error { return nil }

func (p *simPlane) close() {
	for _, n := range p.nodes {
		n.Close()
	}
}
