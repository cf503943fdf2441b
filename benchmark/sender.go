package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"
)

// The paced generator runs in a child process (this same binary started
// with senderArg), one per run. In the engine's process a sender goroutine competes
// with factories, receptors, emitters and GC workers for GOMAXPROCS = 2
// processors, and a woken sender waits up to a scheduler time slice for
// one: on the reference box 2-3% of frames started 10-60 ms late, so
// latency measured from due time measured the Go scheduler. A separate
// process is woken by the kernel within microseconds. On stdin the child
// takes, per set-up, a configuration — it builds the same ring from the
// same seed (the parent checks the hash) and connects — and, per paced
// segment, a schedule; it answers each on stdout. The schedule is fixed
// by the command, so the parent knows every frame's due time without
// being told. One child serves every set-up of a run: a fresh process
// touches fresh memory, which on a virtual machine costs anything from
// nothing to 70 ms for the same ring.
const senderArg = "-sender"

// senderMsg is one request to the child: exactly one field is set.
type senderMsg struct {
	Config *senderConfig `json:"config,omitempty"`
	Paced  *pacedCmd     `json:"paced,omitempty"`
}

type senderConfig struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Slots    int      `json:"slots"`
	Addrs    []string `json:"addrs"`
}

type senderReady struct {
	SHA string `json:"sha"`
	Err string `json:"err,omitempty"`
}

// pacedCmd is one paced segment: frame i goes out at T0 + i*Interval on
// the wall clock, which parent and child share.
type pacedCmd struct {
	T0       int64 `json:"t0_unix_ns"`
	Interval int64 `json:"interval_ns"`
	First    int   `json:"first"`
	N        int   `json:"n"`
}

type pacedReply struct {
	Frames  int    `json:"frames"`
	MaxLag  int64  `json:"max_lag_ns"`
	Late    int    `json:"late"`
	Overdue int    `json:"overdue"`
	Stall   int64  `json:"stall_ns"`
	Err     string `json:"err,omitempty"`
}

func dialAll(addrs []string) ([]net.Conn, error) {
	var conns []net.Conn
	for _, a := range addrs {
		c, err := net.Dial("tcp", a)
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeAll(conns []net.Conn) {
	for _, c := range conns {
		c.Close()
	}
}

// sendAll runs one sender goroutine per connection and merges what they
// report; sends is summed per ring slot.
func sendAll(conns []net.Conn, one func(conn net.Conn, offset int) sendStats) (sendStats, error) {
	stats := make([]sendStats, len(conns))
	var wg sync.WaitGroup
	for c, conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[c] = one(conn, c)
		}()
	}
	wg.Wait()
	var tot sendStats
	for _, st := range stats {
		if st.err != nil {
			return tot, fmt.Errorf("sender: %w", st.err)
		}
		tot.frames += st.frames
		tot.maxLag = max(tot.maxLag, st.maxLag)
		tot.late += st.late
		tot.overdue += st.overdue
		tot.stall += st.stall
		if tot.sends == nil {
			tot.sends = make([]int32, len(st.sends))
		}
		for slot, n := range st.sends {
			tot.sends[slot] += n
		}
	}
	return tot, nil
}

// senderMain is the child process: serve configurations and paced
// segments until stdin closes.
func senderMain(in io.Reader, out io.Writer) error {
	dec, enc := json.NewDecoder(in), json.NewEncoder(out)
	var (
		ring  *ring
		conns []net.Conn
	)
	defer func() { closeAll(conns) }()
	for {
		var msg senderMsg
		if err := dec.Decode(&msg); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch {
		case msg.Config != nil:
			closeAll(conns)
			conns = nil
			rep := senderReady{}
			var err error
			if ring, conns, err = configure(*msg.Config); err != nil {
				rep.Err = err.Error()
			} else {
				rep.SHA = ring.sha
			}
			if err := enc.Encode(rep); err != nil {
				return err
			}
		case msg.Paced != nil && ring != nil:
			cmd := msg.Paced
			s := schedule{t0: time.Unix(0, cmd.T0), interval: time.Duration(cmd.Interval),
				first: cmd.First, n: cmd.N, slots: len(ring.frames)}
			st, err := sendAll(conns, func(conn net.Conn, offset int) sendStats {
				return sendPaced(conn, ring, s, offset, len(conns))
			})
			rep := pacedReply{Frames: st.frames, MaxLag: int64(st.maxLag), Late: st.late,
				Overdue: st.overdue, Stall: int64(st.stall)}
			if err != nil {
				rep.Err = err.Error()
			}
			if err := enc.Encode(rep); err != nil {
				return err
			}
		default:
			return fmt.Errorf("sender process: request out of order")
		}
	}
}

// configure builds the ring a configuration names and connects to its
// listeners.
func configure(cfg senderConfig) (*ring, []net.Conn, error) {
	for _, w := range workloads() {
		if w.name != cfg.Workload {
			continue
		}
		ring, err := buildRing(w, cfg.Seed, cfg.Slots)
		if err != nil {
			return nil, nil, err
		}
		conns, err := dialAll(cfg.Addrs)
		return ring, conns, err
	}
	return nil, nil, fmt.Errorf("unknown workload %q", cfg.Workload)
}

// senderProc is the parent's handle on the child.
type senderProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	enc *json.Encoder
	dec *json.Decoder
}

// startSender launches the child.
func startSender() (*senderProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, senderArg)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &senderProc{cmd: cmd, in: in, enc: json.NewEncoder(in), dec: json.NewDecoder(out)}, nil
}

// configure has the child build its ring and connect, and returns the
// ring's hash.
func (p *senderProc) configure(cfg senderConfig) (string, error) {
	if err := p.enc.Encode(senderMsg{Config: &cfg}); err != nil {
		return "", fmt.Errorf("sender process: %w", err)
	}
	var r senderReady
	if err := p.dec.Decode(&r); err != nil {
		return "", fmt.Errorf("sender process: %w", err)
	}
	if r.Err != "" {
		return "", fmt.Errorf("sender process: %s", r.Err)
	}
	return r.SHA, nil
}

// paced has the child send one paced segment and waits for its report.
func (p *senderProc) paced(s schedule) (sendStats, error) {
	cmd := pacedCmd{T0: s.t0.UnixNano(), Interval: int64(s.interval), First: s.first, N: s.n}
	if err := p.enc.Encode(senderMsg{Paced: &cmd}); err != nil {
		return sendStats{}, fmt.Errorf("sender process: %w", err)
	}
	var r pacedReply
	if err := p.dec.Decode(&r); err != nil {
		return sendStats{}, fmt.Errorf("sender process: %w", err)
	}
	st := sendStats{frames: r.Frames, maxLag: time.Duration(r.MaxLag), late: r.Late,
		overdue: r.Overdue, stall: time.Duration(r.Stall)}
	if r.Err != "" {
		return st, fmt.Errorf("sender process: %s", r.Err)
	}
	return st, nil
}

// stop closes the child's stdin, which ends it, and waits for it.
func (p *senderProc) stop() {
	p.in.Close()
	p.cmd.Wait()
}
