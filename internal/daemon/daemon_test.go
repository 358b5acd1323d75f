package daemon

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"coterie/internal/capi"
	"coterie/internal/nodeset"
	"coterie/internal/replica"
	"coterie/internal/transport/tcpnet"
)

func freeAddrs(t *testing.T, n int) map[nodeset.ID]string {
	t.Helper()
	addrs := make(map[nodeset.ID]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[nodeset.ID(i)] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// startCluster brings up n daemons sharing one address book, all in this
// process — the same wiring cmd/coteried does per process — with the
// default geometry: one shard whose coterie is all n (≤ 3) nodes.
func startCluster(t *testing.T, n int, callTimeout time.Duration) (map[nodeset.ID]string, []*Daemon) {
	t.Helper()
	book := freeAddrs(t, n)
	daemons := make([]*Daemon, 0, n)
	for i := 0; i < n; i++ {
		d, err := Start(Config{
			Self:        nodeset.ID(i),
			Addrs:       book,
			ItemSize:    32,
			CallTimeout: callTimeout,
		})
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		daemons = append(daemons, d)
		t.Cleanup(d.Close)
	}
	return book, daemons
}

// TestDaemonClusterServesClientAPI drives a 3-daemon cluster through the
// capi surface from an external tcpnet client: the default map is one
// shard over every node, a partial write via one daemon, the read
// observing it via another, an epoch check via a third, an untouched item
// reading as its zero initial value, and the error path of an update
// outside the item.
func TestDaemonClusterServesClientAPI(t *testing.T) {
	book, daemons := startCluster(t, 3, 2*time.Second)
	for i, d := range daemons {
		if m := d.Map(); m.NumShards() != 1 || !m.MembersOf("item-0").Equal(nodeset.Range(0, 3)) {
			t.Fatalf("daemon %d map: %d shards, item-0 on %v; want one shard over all 3 nodes", i, m.NumShards(), m.MembersOf("item-0"))
		}
	}
	cli := tcpnet.New(book)
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const clientID = nodeset.ID(100)

	wrep, err := cli.Call(ctx, clientID, 0, capi.Write{
		Item:   "item-0",
		Update: replica.Update{Offset: 3, Data: []byte("net")},
	})
	if err != nil {
		t.Fatal(err)
	}
	wr := wrep.(capi.WriteReply)
	if wr.Status != capi.StatusOK || wr.Version != 1 {
		t.Fatalf("write reply = %+v", wr)
	}

	rrep, err := cli.Call(ctx, clientID, 1, capi.Read{Item: "item-0"})
	if err != nil {
		t.Fatal(err)
	}
	rr := rrep.(capi.ReadReply)
	want := make([]byte, 32)
	copy(want[3:], "net")
	if rr.Status != capi.StatusOK || rr.Version != 1 || string(rr.Value) != string(want) {
		t.Fatalf("read reply = %+v", rr)
	}

	crep, err := cli.Call(ctx, clientID, 2, capi.CheckEpoch{Item: "item-1"})
	if err != nil {
		t.Fatal(err)
	}
	if cr := crep.(capi.CheckReply); cr.Status != capi.StatusOK {
		t.Fatalf("check reply = %+v", cr)
	}

	urep, err := cli.Call(ctx, clientID, 2, capi.Read{Item: "never-written"})
	if err != nil {
		t.Fatal(err)
	}
	if ur := urep.(capi.ReadReply); ur.Status != capi.StatusOK || ur.Version != 0 || string(ur.Value) != string(make([]byte, 32)) {
		t.Fatalf("untouched-item reply = %+v", ur)
	}

	// With two of three daemons gone the survivor holds no write quorum:
	// the client API answers a typed failure, not a transport error.
	daemons[1].Close()
	daemons[2].Close()
	erep, err := cli.Call(ctx, clientID, 0, capi.Write{
		Item:   "item-1",
		Update: replica.Update{Data: []byte("x")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if er := erep.(capi.WriteReply); er.Status != capi.StatusUnavailable {
		t.Fatalf("write without a quorum = %+v, want StatusUnavailable", er)
	}
}

// TestDaemonRecoveringStartsQuarantined verifies the restart path: a
// replica materialized on a daemon started with Recovering answers but is
// excluded from quorums until an epoch check readmits it, and its rebuilt
// value is the full committed value, not a truncation (the amnesia
// replay-base fix).
func TestDaemonRecoveringStartsQuarantined(t *testing.T) {
	book, daemons := startCluster(t, 3, 2*time.Second)
	cli := tcpnet.New(book)
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const clientID = nodeset.ID(100)

	if _, err := cli.Call(ctx, clientID, 0, capi.Write{
		Item:   "item-0",
		Update: replica.Update{Offset: 5, Data: []byte("xy")},
	}); err != nil {
		t.Fatal(err)
	}

	// Replace daemon 2 with a recovering incarnation at the same address,
	// as loadgen's churn respawn does across processes.
	daemons[2].Close()
	d2, err := Start(Config{
		Self:        2,
		Addrs:       book,
		ItemSize:    32,
		CallTimeout: 2 * time.Second,
		Recovering:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Item("item-0") != nil {
		t.Fatal("restarted daemon materialized item-0 before any traffic")
	}
	// A peer's protocol message materializes the replica (the node's
	// auto-create provisioner), and it must come up recovering.
	srep, err := cli.Call(ctx, clientID, 2, replica.Envelope{Item: "item-0", Msg: replica.StateQuery{}})
	if err != nil {
		t.Fatal(err)
	}
	if st := srep.(replica.StateReply); !st.Recovering {
		t.Fatalf("state of the reborn replica = %+v, want recovering", st)
	}
	if rep := d2.Item("item-0"); rep == nil || !rep.Recovering() {
		t.Fatal("restarted daemon's replica not in recovering state")
	}

	crep, err := cli.Call(ctx, clientID, 0, capi.CheckEpoch{Item: "item-0"})
	if err != nil {
		t.Fatal(err)
	}
	if cr := crep.(capi.CheckReply); cr.Status != capi.StatusOK {
		t.Fatalf("epoch check = %+v", cr)
	}
	if d2.Item("item-0").Recovering() {
		t.Fatal("epoch check did not readmit the recovering replica")
	}

	// Propagation rebuilds the full-size value on the readmitted replica.
	want := make([]byte, 32)
	copy(want[5:], "xy")
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := d2.Item("item-0").State()
		if !st.Stale && st.Version == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never rebuilt: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v, _ := d2.Item("item-0").Value(); string(v) != string(want) {
		t.Fatalf("rebuilt value = %q, want %q", v, want)
	}
}

// TestDaemonCloseWithWritesInFlight closes daemons while clients keep
// writing through them. Close must stop the transport and wait for its
// in-flight handlers before the node closes the items they touch (under
// -race this was a data race between Item.Close and a live LockPrepare
// handler), and it must return once the handlers' deadlines (at most a
// CallTimeout for a parked one) have passed.
func TestDaemonCloseWithWritesInFlight(t *testing.T) {
	book, daemons := startCluster(t, 3, 250*time.Millisecond)
	cli := tcpnet.New(book)
	defer cli.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	var mu sync.Mutex
	ok := 0
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			item := fmt.Sprintf("item-%d", w%3)
			for i := 0; ctx.Err() == nil; i++ {
				opCtx, opCancel := context.WithTimeout(ctx, 5*time.Second)
				rep, err := cli.Call(opCtx, nodeset.ID(100+w), nodeset.ID(w%3), capi.Write{
					Item:   item,
					Update: replica.Update{Offset: i % 32, Data: []byte{byte(i)}},
				})
				opCancel()
				if err == nil && rep.(capi.WriteReply).Status == capi.StatusOK {
					mu.Lock()
					ok++
					mu.Unlock()
				}
			}
		}(w)
	}
	// Let writes get going on every daemon before pulling two of them.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := ok
		mu.Unlock()
		if n >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d writes committed before the close", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, d := range daemons[1:] {
		done := make(chan struct{})
		go func() { d.Close(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not return with writes in flight")
		}
	}
	cancel()
	wg.Wait()
}
