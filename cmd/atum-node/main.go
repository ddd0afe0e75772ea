// Command atum-node runs one Atum node over real TCP — the deployment shape
// of the middleware: one process per node, joined into a single group
// communication instance.
//
// Start the first node (bootstraps a new instance):
//
//	atum-node -listen 127.0.0.1:7001 -id 1 -bootstrap
//
// Join more nodes through any running node as contact:
//
//	atum-node -listen 127.0.0.1:7002 -id 2 -join 127.0.0.1:7001 -contact-id 1
//
// Every line read from stdin is broadcast to the whole instance; every
// delivered broadcast is printed to stdout. This makes atum-node a tiny
// cluster-wide chat — the minimal application of a group communication
// service — and doubles as a manual integration harness.
//
// The contact's public key is fetched over the first connection (trust on
// first use), mirroring the paper's §3.3.2: the contact node is the one
// entity a joiner must trust.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"atum"
	"atum/internal/crypto"
	"atum/internal/ids"
	"atum/internal/tcpnet"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "TCP address to listen on")
		advertise = flag.String("advertise", "", "address peers should dial (default: the listen address)")
		id        = flag.Uint64("id", 0, "this node's numeric ID (required, unique per instance)")
		bootstrap = flag.Bool("bootstrap", false, "create a new Atum instance")
		join      = flag.String("join", "", "contact node address to join through")
		contactID = flag.Uint64("contact-id", 0, "contact node's numeric ID (required with -join)")
		mode      = flag.String("mode", "async", "SMR engine: sync or async")
		gmax      = flag.Int("gmax", 8, "maximum vgroup size before a split")
		hc        = flag.Int("hc", 3, "number of H-graph cycles")
		rwl       = flag.Int("rwl", 4, "random walk length")
		verbose   = flag.Bool("v", false, "engine debug logs to stderr")
	)
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	if *id == 0 {
		log.Fatal("atum-node: -id is required and must be nonzero")
	}
	if *bootstrap == (*join != "") {
		log.Fatal("atum-node: exactly one of -bootstrap or -join is required")
	}
	if *join != "" && *contactID == 0 {
		log.Fatal("atum-node: -contact-id is required with -join")
	}
	smrMode := atum.ModeAsync
	if *mode == "sync" {
		smrMode = atum.ModeSync
	} else if *mode != "async" {
		log.Fatalf("atum-node: unknown -mode %q", *mode)
	}

	// Runtime and transport reference each other; bind late.
	var shim lateTransport
	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, args ...any) { log.Printf(format, args...) }
	}
	rt := atum.NewRealtimeRuntime(atum.RealtimeOptions{
		Seed:      int64(*id),
		Mode:      smrMode,
		Transport: &shim,
		Logf:      logf,
	})
	defer rt.Close()

	tr, err := tcpnet.New(ids.NodeID(*id), rt.RT, tcpnet.Options{
		ListenAddr:    *listen,
		AdvertiseAddr: *advertise,
		Codec:         atum.WireMessageCodec(),
		Logf:          logf,
	})
	if err != nil {
		log.Fatalf("atum-node: %v", err)
	}
	shim.tr = tr

	node, err := rt.AddNodeWith(atum.Callbacks{
		Deliver: func(d atum.Delivery) {
			fmt.Printf("<%v> %s\n", d.Origin, d.Data)
		},
		OnJoined: func(comp atum.GroupComposition) {
			log.Printf("joined vgroup g%d (epoch %d, %d members)", comp.GroupID, comp.Epoch, comp.N())
		},
		OnLeft: func(reason string) {
			log.Printf("left the system: %s", reason)
		},
	}, func(c *atum.Config) {
		c.Identity = atum.Identity{ID: ids.NodeID(*id), Addr: tr.Addr()}
		c.SignerSeed = []byte(fmt.Sprintf("atum-node-%d", *id))
		c.Scheme = crypto.Ed25519Scheme{}
		c.Params = atum.Params{HC: *hc, RWL: *rwl, GMax: *gmax, GMin: *gmax / 2}
	})
	if err != nil {
		log.Fatalf("atum-node: %v", err)
	}

	log.Printf("node n%d listening on %s (%s mode)", *id, tr.Addr(), *mode)

	if *bootstrap {
		if err := rt.Bootstrap(node); err != nil {
			log.Fatalf("atum-node: bootstrap: %v", err)
		}
		log.Printf("bootstrapped a new Atum instance")
	} else {
		contact := atum.Identity{ID: ids.NodeID(*contactID), Addr: *join}
		if err := rt.Join(node, contact); err != nil {
			log.Fatalf("atum-node: join: %v", err)
		}
		log.Printf("joining via n%d at %s ...", *contactID, *join)
		deadline := time.Now().Add(60 * time.Second)
		for !rt.IsMember(node) {
			if time.Now().After(deadline) {
				log.Fatal("atum-node: join timed out")
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	// Broadcast stdin lines until EOF or signal.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()

	for {
		select {
		case <-sig:
			log.Printf("shutting down")
			_ = rt.Leave(node)
			time.Sleep(500 * time.Millisecond)
			return
		case line, ok := <-lines:
			if !ok {
				log.Printf("stdin closed; staying online (ctrl-c to leave)")
				<-sig
				_ = rt.Leave(node)
				time.Sleep(500 * time.Millisecond)
				return
			}
			if line == "" {
				continue
			}
			if err := rt.BroadcastWith(node, []byte(line), atum.BroadcastOpts{}); err != nil {
				log.Printf("broadcast: %v", err)
			}
		}
	}
}

// lateTransport defers the transport binding (runtime is constructed first).
type lateTransport struct {
	tr *tcpnet.Transport
}

func (l *lateTransport) Send(from, to ids.NodeID, msg any) {
	if l.tr != nil {
		l.tr.Send(from, to, msg)
	}
}

func (l *lateTransport) LearnAddr(id ids.NodeID, addr string) {
	if l.tr != nil {
		l.tr.LearnAddr(id, addr)
	}
}

func (l *lateTransport) Close() error {
	if l.tr != nil {
		return l.tr.Close()
	}
	return nil
}
