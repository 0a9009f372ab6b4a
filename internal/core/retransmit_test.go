package core

import (
	"testing"
	"time"

	"repro/internal/memfs"
	"repro/internal/nfs3"
	"repro/internal/nfscall"
	"repro/internal/nfsserver"
	"repro/internal/simnet"
	"repro/internal/sunrpc"
	"repro/internal/vclock"
)

// TestRetransmitWaitsOutALargeReadReply: a READ is a small call with a large
// reply. On the paper's 4 Mbit/s link a 256 KiB READ's reply takes half a
// second to cross, longer than a 100 ms first wait. The session's policy
// stretches that wait by the count the READ asks for, as it stretches a
// WRITE's by its data, so the READ crosses once; with the stretch reverted it
// is sent again while its reply is still on the wire.
func TestRetransmitWaitsOutALargeReadReply(t *testing.T) {
	const count = 256 << 10
	for _, tc := range []struct {
		name    string
		stretch bool
	}{
		{"the session's policy", true},
		{"the stretch reverted", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.NewVirtual()
			defer clk.Stop()
			net := simnet.New(clk, simnet.WAN)
			fs := memfs.New(clk.Now)
			if _, err := fs.WriteFile("f", make([]byte, count)); err != nil {
				t.Fatal(err)
			}
			srv := sunrpc.NewServer(clk)
			nfsserver.New(fs, serverVerf).Register(srv)
			l, err := net.Host("server").Listen(":2049")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			srv.Serve(l)

			done := make(chan struct{})
			clk.Go("driver", func() {
				defer close(done)
				conn, err := net.Host("client").Dial("server:2049")
				if err != nil {
					t.Error(err)
					return
				}
				cli := sunrpc.NewClient(clk, conn, sunrpc.NoneCred())
				defer cli.Close()
				cfg := Config{}.withDefaults()
				policy := cfg.retransmitPolicy()
				policy.Initial = 100 * time.Millisecond
				if !tc.stretch {
					policy.ReplyBytes = nil
				}
				cli.SetRetransmit(policy)
				nc := nfscall.New(cli)
				nc.Timeout = cfg.CallTimeout
				root, err := nc.Mount("/export")
				if err != nil {
					t.Error(err)
					return
				}
				lk, err := nc.Lookup(root, "f")
				if err != nil || lk.Status != nfs3.OK {
					t.Errorf("lookup: %v %v", err, lk.Status)
					return
				}
				before := net.LinkStats("client", "server").Messages
				rd, err := nc.Read(lk.FH, 0, count)
				if err != nil || rd.Status != nfs3.OK || rd.Count != count {
					t.Errorf("read: %v %v, %d bytes", err, rd.Status, rd.Count)
					return
				}
				sent := net.LinkStats("client", "server").Messages - before
				if tc.stretch && sent != 1 {
					t.Errorf("the READ was sent %d times, want once: its first wait must cover its reply's transfer", sent)
				}
				if !tc.stretch && sent < 2 {
					t.Errorf("the READ was sent %d times, want it sent again mid-reply: the test proves nothing", sent)
				}
			})
			<-done
		})
	}
}
