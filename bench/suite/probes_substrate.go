package suite

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	securetf "github.com/securetf/securetf"
	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/vtime"
)

// Probes of the substrate layers: clock, device, enclave, runtime, crypto,
// file systems, shields, CAS and container.

// vtime: the clock's hot path, two goroutines advancing one clock.
func (p *prober) vtime() error {
	const calls = 500_000
	var clock vtime.Clock
	sp := p.rec.Start(p.root, -1, "vtime", "Advance", nil)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < Clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls/Clients; i++ {
				clock.Advance(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	d := time.Since(start)
	sp.End()
	p.add("vtime.advance_ns", "ns", float64(d)/calls)
	return nil
}

// device: one Compute and one Access charge on an enclave device.
func (p *prober) device() error {
	const calls = 200_000
	dev := p.server.Device(1)
	sp := p.rec.Start(p.root, -1, "device", "Compute+Access", p.server.Clock())
	start := time.Now()
	for i := 0; i < calls; i++ {
		dev.Compute(1000)
		dev.Access(4096, true)
	}
	d := time.Since(start)
	sp.End()
	p.add("device.charge_ns", "ns", float64(d)/calls)
	return nil
}

// sgx: enclave creation, quote generation and verification, and the
// paging model on a working set larger than the EPC. No workload pages
// today, so the paged_* metrics move no end-to-end number.
func (p *prober) sgx() error {
	platform, err := securetf.NewPlatform("probe-sgx")
	if err != nil {
		return err
	}
	image := securetf.TFLiteImage()
	t, err := p.sample("sgx", "CreateEnclave", platform.Clock(), func() error {
		e, err := platform.CreateEnclave(image, sgx.ModeHW)
		if err == nil {
			e.Destroy()
		}
		return err
	})
	if err != nil {
		return err
	}
	p.add("sgx.create_enclave_ms", "ms", ms(t.wall))
	p.add("sgx.create_enclave_vms", "vms", ms(t.virt))

	e, err := platform.CreateEnclave(image, sgx.ModeHW)
	if err != nil {
		return err
	}
	defer e.Destroy()
	t, err = p.sample("sgx", "GetQuote+VerifyQuote", platform.Clock(), func() error {
		q, err := e.GetQuote([]byte("bench"), sgx.QEVendorDCAP)
		if err != nil {
			return err
		}
		return sgx.VerifyQuote(q, platform.AttestationKey())
	})
	if err != nil {
		return err
	}
	p.add("sgx.quote_verify_ms", "ms", ms(t.wall))

	const workingSet = 160 * mib
	e.Alloc("probe/working-set", workingSet)
	for _, pat := range []struct {
		name    string
		pattern sgx.AccessPattern
	}{{"stream", sgx.AccessStreaming}, {"random", sgx.AccessRandom}} {
		sp := p.rec.Start(p.root, -1, "sgx", "Access/"+pat.name, platform.Clock())
		v0 := platform.Clock().Now()
		e.Access(workingSet, pat.pattern)
		d := platform.Clock().Now() - v0
		sp.End()
		p.add("sgx.paged_"+pat.name+"_vms_per_mb", "vms", ms(d)/(workingSet/mib))
	}
	return nil
}

// scone: one syscall round trip through the runtime's ring.
func (p *prober) scone() error {
	fsys := p.client.FS()
	if err := securetf.WriteFile(fsys, "probe/stat", []byte("x")); err != nil {
		return err
	}
	t, err := p.sample("scone", "Stat", p.client.Clock(), func() error {
		_, err := fsys.Stat("probe/stat")
		return err
	})
	if err != nil {
		return err
	}
	p.add("scone.syscall_us", "us", us(t.wall))
	p.add("scone.syscall_vus", "vus", us(t.virt))
	return nil
}

func (p *prober) seccrypto() error {
	key, err := seccrypto.NewRandomKey()
	if err != nil {
		return err
	}
	const chunk = 4096 // the FS shield's chunk size
	plain := make([]byte, chunk)
	var nonce [12]byte
	var sealed []byte
	t, err := p.sample("seccrypto", "SealDeterministic", nil, func() error {
		sealed, err = seccrypto.SealDeterministic(key, nonce, plain, nil)
		return err
	})
	if err != nil {
		return err
	}
	p.add("seccrypto.seal_mb_per_s", "MiB/s", mbPerS(chunk, t.wall))
	if t, err = p.sample("seccrypto", "OpenDeterministic", nil, func() error {
		_, err := seccrypto.OpenDeterministic(key, nonce, sealed, nil)
		return err
	}); err != nil {
		return err
	}
	p.add("seccrypto.open_mb_per_s", "MiB/s", mbPerS(chunk, t.wall))

	// The PRG expands pairwise masks: one mask per sampled peer and round.
	prg, mask := seccrypto.NewPRG(key), make([]byte, mib)
	if t, err = p.sample("seccrypto", "PRG.Read", nil, func() error {
		prg.Read(mask)
		return nil
	}); err != nil {
		return err
	}
	p.add("seccrypto.prg_mb_per_s", "MiB/s", mbPerS(len(mask), t.wall))

	signer, err := seccrypto.NewSigningKey()
	if err != nil {
		return err
	}
	msg, sig := []byte("placement manifest"), []byte(nil)
	if t, err = p.sample("seccrypto", "Sign", nil, func() error {
		sig, err = signer.Sign(msg)
		return err
	}); err != nil {
		return err
	}
	p.add("seccrypto.sign_us", "us", us(t.wall))
	if t, err = p.sample("seccrypto", "Verify", nil, func() error {
		if !seccrypto.Verify(signer.Public(), msg, sig) {
			return fmt.Errorf("signature did not verify")
		}
		return nil
	}); err != nil {
		return err
	}
	p.add("seccrypto.verify_us", "us", us(t.wall))

	ca, err := seccrypto.NewCA("probe-ca")
	if err != nil {
		return err
	}
	if t, err = p.sample("seccrypto", "CA.Issue", nil, func() error {
		_, err := ca.Issue("probe", "localhost")
		return err
	}); err != nil {
		return err
	}
	p.add("seccrypto.ca_issue_ms", "ms", ms(t.wall))
	return nil
}

// chunked writes data to f in 4 KiB WriteAt calls, the FS shield's pattern.
func chunked(f interface {
	WriteAt([]byte, int64) (int, error)
}, data []byte) error {
	for off := 0; off < len(data); off += 4096 {
		if _, err := f.WriteAt(data[off:off+4096], int64(off)); err != nil {
			return err
		}
	}
	return nil
}

// fsapi: the host directory volume under the shield, in the shield's
// access pattern.
func (p *prober) fsapi() error {
	dir, err := p.opts.NewVolume()
	if err != nil {
		return err
	}
	fsys, data := securetf.NewDirFS(dir), make([]byte, 16*mib)
	t, err := p.sample("fsapi", "Create+WriteAt", nil, func() error {
		f, err := fsys.Create("probe.bin")
		if err != nil {
			return err
		}
		if err := chunked(f, data); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	p.add("fsapi.os_write_mb_per_s", "MiB/s", mbPerS(len(data), t.wall))
	buf := make([]byte, 4096)
	if t, err = p.sample("fsapi", "Open+ReadAt", nil, func() error {
		f, err := fsys.Open("probe.bin")
		if err != nil {
			return err
		}
		defer f.Close()
		for off := 0; off < len(data); off += len(buf) {
			if _, err := f.ReadAt(buf, int64(off)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	p.add("fsapi.os_read_mb_per_s", "MiB/s", mbPerS(len(data), t.wall))
	return nil
}

// fsshield: encrypted whole-file writes and reads through the container's
// shielded view, at model size and at shard-snapshot size.
func (p *prober) fsshield() error {
	fsys, clock := p.server.FS(), p.server.Clock()
	data := make([]byte, 8*mib)
	t, err := p.sample("fsshield", "WriteFile", clock, func() error {
		return securetf.WriteFile(fsys, "volumes/probe.bin", data)
	})
	if err != nil {
		return err
	}
	mbs := float64(len(data)) / mib
	p.add("fsshield.write_mb_per_s", "MiB/s", mbPerS(len(data), t.wall))
	p.add("fsshield.write_vms_per_mb", "vms", ms(t.virt)/mbs)
	p.add("fsshield.write_alloc_mb_per_mb", "ratio", t.alloc/float64(len(data)))
	if t, err = p.sample("fsshield", "ReadFile", clock, func() error {
		_, err := securetf.ReadFile(fsys, "volumes/probe.bin")
		return err
	}); err != nil {
		return err
	}
	p.add("fsshield.read_mb_per_s", "MiB/s", mbPerS(len(data), t.wall))
	p.add("fsshield.read_vms_per_mb", "vms", ms(t.virt)/mbs)
	snapshot := make([]byte, 1600*1024/trainShards) // one shard of the CNN's 1.6 MB
	if t, err = p.sample("fsshield", "WriteFile/ckpt", clock, func() error {
		return securetf.WriteFile(fsys, "volumes/probe.ckpt", snapshot)
	}); err != nil {
		return err
	}
	p.add("fsshield.ckpt_write_ms", "ms", ms(t.wall))
	return nil
}

// shieldedPair connects the replay's two nodes through the net shield and
// hands the two ends to fn; the server end is served by serve.
func (p *prober) shieldedPair(serve func(net.Conn), fn func(net.Conn) error) error {
	ln, err := p.server.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		serve(conn)
	}()
	conn, err := p.client.Dial("tcp", ln.Addr().String(), "gateway")
	if err != nil {
		return err
	}
	err = fn(conn)
	conn.Close()
	<-done
	return err
}

// netshield: the mutual-TLS handshake, a small echo and a one-way stream
// between two provisioned containers.
func (p *prober) netshield() error {
	t, err := p.sample("netshield", "Dial", p.client.Clock(), func() error {
		return p.shieldedPair(func(c net.Conn) {
			var b [1]byte
			c.Read(b[:]) // forces the server side of the handshake
		}, func(c net.Conn) error {
			_, err := c.Write([]byte{1})
			return err
		})
	})
	if err != nil {
		return err
	}
	p.add("netshield.handshake_ms", "ms", ms(t.wall))
	p.add("netshield.handshake_vms", "vms", ms(t.virt))

	const echo = 8 << 10
	err = p.shieldedPair(func(c net.Conn) {
		buf := make([]byte, echo)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}, func(c net.Conn) error {
		buf := make([]byte, echo)
		t, err := p.sample("netshield", "echo", p.client.Clock(), func() error {
			if _, err := c.Write(buf); err != nil {
				return err
			}
			_, err := io.ReadFull(c, buf)
			return err
		})
		p.add("netshield.echo_8k_us", "us", us(t.wall))
		return err
	})
	if err != nil {
		return err
	}

	const stream = 1600 << 10 // one worker's gradient push
	return p.shieldedPair(func(c net.Conn) {
		buf := make([]byte, stream)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf[:1]); err != nil {
				return
			}
		}
	}, func(c net.Conn) error {
		buf := make([]byte, stream)
		t, err := p.sample("netshield", "stream", p.client.Clock(), func() error {
			if _, err := c.Write(buf); err != nil {
				return err
			}
			_, err := io.ReadFull(c, buf[:1])
			return err
		})
		p.add("netshield.stream_mb_per_s", "MiB/s", mbPerS(stream, t.wall))
		p.add("netshield.stream_vms_per_mb", "vms", ms(t.virt)/(float64(stream)/mib))
		return err
	})
}

// cas: attestation and provisioning of fresh nodes, with the four legs of
// the paper's Figure 4 as the CAS client reports them.
func (p *prober) cas() error {
	const nodes = 5
	first := len(p.cl.attest)
	var walls []time.Duration
	for i := 0; i < nodes; i++ {
		start := time.Now()
		if _, err := p.cl.node(fmt.Sprintf("probe-attest-%d", i), securetf.ContainerConfig{}); err != nil {
			return err
		}
		walls = append(walls, time.Since(start))
	}
	var total, init, quote, confirm, keys []time.Duration
	for _, a := range p.cl.attest[first:] {
		total = append(total, a.Total())
		init = append(init, a.Initialization)
		quote = append(quote, a.SendQuote)
		confirm = append(confirm, a.WaitConfirmation)
		keys = append(keys, a.ReceiveKeys)
	}
	p.add("cas.attest_vms", "vms", ms(median(total)))
	p.add("cas.attest_init_vms", "vms", ms(median(init)))
	p.add("cas.attest_quote_vms", "vms", ms(median(quote)))
	p.add("cas.attest_confirm_vms", "vms", ms(median(confirm)))
	p.add("cas.attest_keys_vms", "vms", ms(median(keys)))
	// The wall legs come off the spans cluster.node records.
	var attest, register []time.Duration
	for _, s := range p.rec.Spans() {
		if s.Parent != p.root {
			continue
		}
		d := time.Duration(s.WallEnd - s.WallStart)
		switch s.Layer + "." + s.Name {
		case "core.Provision":
			attest = append(attest, d)
		case "cas.Register":
			register = append(register, d)
		}
	}
	p.add("cas.attest_ms", "ms", ms(median(attest)))
	p.add("cas.register_ms", "ms", ms(median(register)))
	return nil
}

// core: container launch and provisioning off the replay cluster's spans,
// and the frame codec on an in-memory pipe.
func (p *prober) core() error {
	var launch, launchV, provision []time.Duration
	for _, s := range p.rec.Spans() {
		if s.Parent != p.root || s.Layer != "core" {
			continue
		}
		switch s.Name {
		case "Launch":
			launch = append(launch, time.Duration(s.WallEnd-s.WallStart))
			launchV = append(launchV, time.Duration(s.VirtEnd-s.VirtStart))
		case "Provision":
			provision = append(provision, time.Duration(s.WallEnd-s.WallStart))
		}
	}
	p.add("core.launch_ms", "ms", ms(median(launch)))
	p.add("core.launch_vms", "vms", ms(median(launchV)))
	p.add("core.provision_ms", "ms", ms(median(provision)))

	payload := make([]byte, 8<<10)
	var buf bytes.Buffer
	t, err := p.sample("core", "WriteFrame+ReadFrame", nil, func() error {
		buf.Reset()
		if err := core.WriteFrame(&buf, payload); err != nil {
			return err
		}
		_, err := core.ReadFrame(&buf)
		return err
	})
	if err != nil {
		return err
	}
	p.add("core.frame_rt_us", "us", us(t.wall))
	return nil
}
