package edge_test

// Gateway unit tests against a sequential in-process emulation: the real
// socket, the dynamic five-tuple claim, barrier admission, and the egress
// path back to the learned external endpoint — without the federation
// machinery (internal/experiments/live_test.go covers that end to end).

import (
	"net"
	"testing"
	"time"

	"modelnet"
	"modelnet/internal/edge"
	"modelnet/internal/netstack"
)

// liveStar builds a 2-VN star emulation with a UDP echo on VN 1 port 7 and
// a gateway mapping VN 0 onto it.
func liveStar(t *testing.T, cfg edge.GatewayConfig) (*modelnet.Emulation, *edge.Gateway) {
	t.Helper()
	attr := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(10), LatencySec: modelnet.Ms(2), QueuePkts: 50}
	ideal := modelnet.IdealProfile()
	em, err := modelnet.Run(modelnet.Star(2, attr), modelnet.Options{Profile: &ideal, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	echoHost := em.NewHost(1)
	var echo *netstack.UDPSocket
	echo, err = echoHost.OpenUDP(7, func(from netstack.Endpoint, dg *netstack.Datagram) {
		echo.SendBytes(from, dg.Data)
	})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := edge.NewGateway(cfg, nil, func(vn modelnet.VN) *netstack.Host { return em.NewHost(vn) }, em.Sched)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return em, gw
}

// waitPending polls until the gateway has queued n real arrivals for the
// next barrier; real sockets are asynchronous, virtual time is not.
func waitPending(t *testing.T, gw *edge.Gateway, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if gw.Pending() >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("gateway never queued %d arrivals: %+v", n, gw.Stats())
}

func TestGatewaySequentialRoundTrip(t *testing.T) {
	em, gw := liveStar(t, edge.GatewayConfig{
		Listen: "127.0.0.1:0",
		Maps:   []edge.GatewayMap{{VN: 0, DstVN: 1, DstPort: 7}},
	})

	client, err := net.Dial("udp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	// The datagram sits queued — nothing enters virtual time mid-window.
	waitPending(t, gw, 1)
	if st := gw.Stats(); st.IngressPkts != 0 {
		t.Fatalf("ingress admitted before a barrier: %+v", st)
	}

	// Admit at the "barrier" and run the virtual clock: VN0 -> VN1 echo ->
	// VN0, whose delivery egresses out the real socket.
	if n := gw.Take().Admit(0); n != 1 {
		t.Fatalf("admitted %d datagrams, want 1", n)
	}
	em.RunFor(modelnet.Seconds(1))

	_ = client.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "ping" {
		t.Fatalf("echo payload %q, want %q", buf[:n], "ping")
	}
	st := gw.Stats()
	if st.IngressPkts != 1 || st.EgressPkts != 1 {
		t.Fatalf("counters %+v, want 1 in / 1 out", st)
	}
}

func TestGatewayAdmitStampsAtFloor(t *testing.T) {
	em, gw := liveStar(t, edge.GatewayConfig{
		Listen: "127.0.0.1:0",
		Maps:   []edge.GatewayMap{{VN: 0, DstVN: 1, DstPort: 7}},
	})
	client, err := net.Dial("udp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Write([]byte("x"))
	waitPending(t, gw, 1)

	// A floor ahead of the local clock pushes the ingress into the future:
	// nothing may fire before it.
	floor := modelnet.Seconds(0.5)
	gw.Take().Admit(modelnet.Time(0).Add(floor))
	em.RunFor(modelnet.Seconds(0.4))
	if st := gw.Stats(); st.EgressPkts != 0 {
		t.Fatalf("egress before the floor: %+v", st)
	}
	em.RunFor(modelnet.Seconds(0.2))
	if st := gw.Stats(); st.EgressPkts != 1 {
		t.Fatalf("egress after the floor: %+v, want 1", st)
	}
}

// TestGatewayAdmitsOnlyTheSnapshot pins the step ordering a federated worker
// relies on: arrivals queued before Take are admitted at the floor after the
// window runs, and an arrival that lands after the snapshot waits for the
// next step's snapshot.
func TestGatewayAdmitsOnlyTheSnapshot(t *testing.T) {
	em, gw := liveStar(t, edge.GatewayConfig{
		Listen: "127.0.0.1:0",
		Maps:   []edge.GatewayMap{{VN: 0, DstVN: 1, DstPort: 7}},
	})
	client, err := net.Dial("udp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Write([]byte("early"))
	waitPending(t, gw, 1)

	// Step 1 begins: snapshot, then the window runs, then a late arrival.
	snap := gw.Take()
	em.RunFor(modelnet.Seconds(0.1))
	client.Write([]byte("late"))
	waitPending(t, gw, 1)
	floor := modelnet.Time(0).Add(modelnet.Seconds(0.2))
	if n := snap.Admit(floor); n != 1 {
		t.Fatalf("step 1 admitted %d datagrams, want only the snapshotted one", n)
	}
	if gw.Pending() != 1 {
		t.Fatalf("late arrival not left queued: %d pending", gw.Pending())
	}
	if st := gw.Stats(); st.IngressPkts != 1 {
		t.Fatalf("ingress after step 1: %+v, want 1", st)
	}
	// Nothing fires before the floor, even though the local clock is behind.
	em.RunFor(modelnet.Seconds(0.09))
	if st := gw.Stats(); st.EgressPkts != 0 {
		t.Fatalf("egress before the floor: %+v", st)
	}
	em.RunFor(modelnet.Seconds(1))
	if st := gw.Stats(); st.EgressPkts != 1 {
		t.Fatalf("egress after step 1: %+v, want only the early datagram", st)
	}
	// Step 2's snapshot carries the late arrival.
	if n := gw.Take().Admit(0); n != 1 {
		t.Fatalf("step 2 admitted %d datagrams, want the late one", n)
	}
	em.RunFor(modelnet.Seconds(1))
	if st := gw.Stats(); st.IngressPkts != 2 || st.EgressPkts != 2 {
		t.Fatalf("counters after step 2: %+v, want 2 in / 2 out", st)
	}
}
