// Package edge models — and, live, implements — the boundary where
// applications meet the emulated core. It has two halves:
//
//   - Machine models the physical edge machines that host VNs (§4.2):
//     multiplexing several VNs onto one box trades scale for accuracy, so
//     the model serializes a shared CPU and NIC and applies a calibrated
//     efficiency loss (the paper's Fig. 6 break-even slide). Wrap a host's
//     injector with WrapInjector to charge kernel and NIC costs per packet.
//   - Gateway is the live edge: a real UDP socket on a federation worker
//     through which real, unmodified processes exchange datagrams with the
//     virtual network. A bind.GatewayTable maps each real five-tuple onto
//     an ingress VN; arrivals are snapshotted when a barrier step begins
//     and admitted into virtual time after that step's window, stamped no
//     earlier than any shard's grant, and deliveries to gateway-backed VNs
//     are written back out the real
//     socket. Under real-time pacing (parcore.Pacing) this realizes the
//     paper's headline claim — unmodified applications observing emulated
//     latency and loss — end to end; see DESIGN.md §4 for the timing
//     discipline and what it does to determinism.
package edge
