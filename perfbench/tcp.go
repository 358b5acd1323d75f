package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"

	"coterie/internal/capi"
	"coterie/internal/daemon"
	"coterie/internal/nodeset"
	"coterie/internal/obs"
	"coterie/internal/onecopy"
	"coterie/internal/replica"
	"coterie/internal/transport/tcpnet"
)

// daemonProc is one spawned coteried process.
type daemonProc struct {
	cmd   *exec.Cmd
	admin string
}

// spawnDaemon starts node id as a child process running this binary's
// coteried subcommand and waits until its admin plane reports healthy.
func spawnDaemon(exe string, id nodeset.ID, book map[nodeset.ID]string, sp spec) (*daemonProc, error) {
	cmd := exec.Command(exe, "coteried",
		"-node", strconv.Itoa(int(id)),
		"-cluster", daemon.FormatCluster(book),
		"-shards", strconv.Itoa(sp.Shards),
		"-call-timeout", callTimeout.String(),
		"-admin", "127.0.0.1:0",
	)
	cmd.Stderr = os.Stderr
	// A daemon must not outlive perfbench, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start node %d: %w", id, err)
	}
	p := &daemonProc{cmd: cmd}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			var gotID int
			var addr, admin string
			if n, _ := fmt.Sscanf(sc.Text(), "READY %d %s admin=%s", &gotID, &addr, &admin); n == 3 {
				ready <- admin
			}
		}
		close(ready)
	}()
	select {
	case admin, ok := <-ready:
		if !ok {
			p.kill()
			return nil, fmt.Errorf("node %d exited before READY", id)
		}
		p.admin = admin
	case <-time.After(15 * time.Second):
		p.kill()
		return nil, fmt.Errorf("node %d not READY after 15s", id)
	}
	if err := waitHealthy(p.admin, 15*time.Second); err != nil {
		p.kill()
		return nil, fmt.Errorf("node %d: %w", id, err)
	}
	return p, nil
}

func waitHealthy(admin string, limit time.Duration) error {
	url := "http://" + admin + "/healthz"
	for deadline := time.Now().Add(limit); ; {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy at %s after %s", url, limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (p *daemonProc) kill() {
	_ = p.cmd.Process.Kill() // already exited is fine
	_ = p.cmd.Wait()         // its exit status is a kill by design
}

// stop asks the daemon to shut down and waits, killing it after 3s.
func (p *daemonProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait() // exit status of a signalled daemon carries nothing
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

// reservePorts picks n free loopback addresses.
func reservePorts(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// tcpSystem is sp.Nodes sharded coteried daemons over loopback, driven by
// one capi.Client.
type tcpSystem struct {
	procs  []*daemonProc
	netw   *tcpnet.Network
	client *capi.Client
	reg    *obs.Registry
	tr     *tracer
	names  []string
	recs   []*onecopy.Recorder
}

func newTCPSystem(sp spec, tr *tracer, seed int64) (*tcpSystem, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	addrs, err := reservePorts(sp.Nodes)
	if err != nil {
		return nil, err
	}
	book := map[nodeset.ID]string{}
	seeds := make([]nodeset.ID, sp.Nodes)
	for i, a := range addrs {
		book[nodeset.ID(i)] = a
		seeds[i] = nodeset.ID(i)
	}
	s := &tcpSystem{reg: obs.New(), tr: tr}
	for i := range addrs {
		p, err := spawnDaemon(exe, nodeset.ID(i), book, sp)
		if err != nil {
			s.close()
			return nil, err
		}
		s.procs = append(s.procs, p)
	}
	s.netw = tcpnet.New(book, tcpnet.WithObs(s.reg), tcpnet.WithPoolSize(nproc()))
	var cnet asyncNet = s.netw
	if tr != nil {
		cnet = &tracedNet{inner: s.netw, t: tr}
	}
	s.client, err = capi.NewClient(cnet, capi.ClientConfig{
		Self:  nodeset.ID(sp.Nodes),
		Seeds: seeds,
		Obs:   s.reg,
		Seed:  uint64(seed),
	})
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = s.client.Refresh(ctx)
		cancel()
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("capi client: %w", err)
	}
	for k := 0; k < clients*sp.Items; k++ {
		s.names = append(s.names, "k"+strconv.Itoa(k))
		s.recs = append(s.recs, onecopy.NewRecorder(make([]byte, itemSize)))
	}
	return s, nil
}

// warmUp reads every key once, each client its own range concurrently,
// so every owning daemon has built the key's coordinator.
func (s *tcpSystem) warmUp(sp spec) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c * sp.Items; k < (c+1)*sp.Items; k++ {
				if err := s.op(context.Background(), nil, true, k, replica.Update{}); err != nil {
					errs[c] = fmt.Errorf("warm-up of %s: %w", s.names[k], err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *tcpSystem) op(ctx context.Context, _ *rand.Rand, read bool, key int, u replica.Update) error {
	name, rec := s.names[key], s.recs[key]
	opName := "write"
	if read {
		opName = "read"
	}
	ctx, sp := s.tr.beginOp(ctx, "capi", opName)
	start := rec.Begin()
	var err error
	if read {
		var reply capi.ReadReply
		if reply, err = s.client.Read(ctx, name); err == nil {
			if err = capiStatusErr(reply.Status, reply.Detail); err == nil {
				rec.EndRead(start, reply.Version, reply.Value)
			}
		}
	} else {
		var reply capi.WriteReply
		reply, err = s.client.Write(ctx, name, u)
		switch {
		case err == nil && reply.Status == capi.StatusOK:
			rec.EndWrite(start, reply.Version, u)
		case err == nil && reply.Status == capi.StatusConflict:
			// A clean abort: the write cannot have applied.
		case err == nil || errors.Is(err, capi.ErrAmbiguous):
			// The commit may have begun; the checker allows both outcomes.
			rec.EndMaybeWrite(start, u)
		default:
			// Failed before anything that could commit was sent.
		}
		if err == nil {
			err = capiStatusErr(reply.Status, reply.Detail)
		}
	}
	s.tr.endOp(sp, err)
	return err
}

// counters merges the client's counters with every daemon's scraped ones.
func (s *tcpSystem) counters() map[string]int64 {
	out := map[string]int64{}
	for _, c := range s.reg.Snapshot().Counters {
		out["client."+c.Name] = c.Value
	}
	var admins []string
	for _, p := range s.procs {
		admins = append(admins, p.admin)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cs := capi.ScrapeCluster(ctx, nil, admins)
	for _, err := range cs.Errs {
		logf("scrape: %v", err)
	}
	for name, v := range cs.Counters {
		out[name] = v
	}
	return out
}

func (s *tcpSystem) retries() reasons { return reasons{} }

func (s *tcpSystem) checkHistories() int { return checkAll(s.recs, s.names) }

func (s *tcpSystem) peakRSSMB() float64 {
	total, _ := peakRSSkB(0) // a missing /proc reads as 0, which no run can produce
	for _, p := range s.procs {
		kb, err := peakRSSkB(p.cmd.Process.Pid)
		if err != nil {
			logf("rss of daemon %d: %v", p.cmd.Process.Pid, err)
		}
		total += kb
	}
	return float64(total) / 1024
}

func (s *tcpSystem) close() {
	if s.netw != nil {
		_ = s.netw.Close() // teardown: nothing left to deliver
	}
	var wg sync.WaitGroup
	for _, p := range s.procs {
		wg.Add(1)
		go func(p *daemonProc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
}
