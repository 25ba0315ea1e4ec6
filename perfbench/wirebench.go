package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"modelnet/internal/fednet/wire"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// The codec microbenchmark encodes and decodes DataBatch frames of DataMsg
// elements the way the federated data plane does (wire.EncodePacket,
// DataMsg.Encode, wire.EncodeDataBatch and wire.AppendFrame out;
// wire.ParseFrame, wire.DecodeDataBatch and PacketWire.Packet in), in two
// shapes:
//
//   - ring: ring-cbr's tunnel message, a UDP datagram header with no
//     application object, carrying ring-cbr's route;
//   - tcp: a full-size netstack TCP data segment whose message marker holds
//     a registered payload object, so the recursive payload codec runs.
const (
	wireBatchMsgs = 48  // about one window's messages to one peer on ring-fed2
	wireBatches   = 200 // batches per timed pass
	wirePasses    = 5   // the reported figure is the median pass
)

// wireShapes builds the payload of message i of each shape.
var wireShapes = []struct {
	name    string
	payload func(i int) any
}{
	{"ring", func(i int) any {
		return &netstack.Datagram{SrcPort: 49152, DstPort: 9, Len: 1000 - netstack.UDPHeader}
	}},
	{"tcp", func(i int) any {
		seq := uint64(i) * 1448
		return &netstack.Segment{
			SrcPort: 49152, DstPort: 80, Seq: seq, Ack: 1, Len: 1448,
			HasACK: true, Window: 65535,
			Msgs: []netstack.MsgMarker{{End: seq + 1448, Obj: &netstack.Datagram{SrcPort: 1, DstPort: 2, Len: 64}}},
		}
	}},
}

// wireBench reports ns/msg for encode and decode, allocations per message
// (encode and decode together) and framed bytes per message, per shape.
func wireBench(routeLen int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, sh := range wireShapes {
		msgs := make([]*pipes.Packet, wireBatchMsgs)
		for i := range msgs {
			route := make([]pipes.ID, routeLen)
			for h := range route {
				route[h] = pipes.ID(40 + h)
			}
			msgs[i] = &pipes.Packet{
				Seq: uint64(i + 1), Size: 1000, Src: pipes.VN(i), Dst: pipes.VN(i + 200),
				Route: route, Hop: routeLen / 2, Injected: vtime.Time(1e9 + i*1000), Lag: 0,
				Payload: sh.payload(i),
			}
		}
		var enc, dec, allocs []float64
		var bytes int
		for pass := 0; pass < wirePasses; pass++ {
			frames := make([][]byte, wireBatches)
			runtime.GC()
			var m0, m1, m2 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for b := range frames {
				elems := make([][]byte, len(msgs))
				for i, pkt := range msgs {
					pw, err := wire.EncodePacket(pkt)
					if err != nil {
						return nil, fmt.Errorf("wire %s: %w", sh.name, err)
					}
					d := wire.DataMsg{Seq: pkt.Seq, Kind: wire.KindTunnel, Pid: int32(pkt.Route[pkt.Hop]),
						At: int64(pkt.Injected), Fire: int64(pkt.Injected) + 5e6, Pkt: pw}
					elems[i] = d.Encode()
				}
				body := wire.EncodeDataBatch(1, uint64(b*len(msgs)+1), 0, elems)
				frames[b] = wire.AppendFrame(nil, wire.TDataBatch, body)
			}
			t1 := time.Now()
			runtime.ReadMemStats(&m1)
			for _, f := range frames {
				_, body, err := wire.ParseFrame(f)
				if err != nil {
					return nil, fmt.Errorf("wire %s: %w", sh.name, err)
				}
				batch, err := wire.DecodeDataBatch(body)
				if err != nil {
					return nil, fmt.Errorf("wire %s: %w", sh.name, err)
				}
				for i := range batch.Msgs {
					if _, err := batch.Msgs[i].Pkt.Packet(); err != nil {
						return nil, fmt.Errorf("wire %s: %w", sh.name, err)
					}
				}
			}
			t2 := time.Now()
			runtime.ReadMemStats(&m2)
			n := float64(wireBatches * len(msgs))
			enc = append(enc, float64(t1.Sub(t0).Nanoseconds())/n)
			dec = append(dec, float64(t2.Sub(t1).Nanoseconds())/n)
			// Whole allocations per batch: the codec's count is a whole
			// number, and rounding drops the few the runtime makes per pass.
			perBatch := math.Round(float64(m2.Mallocs-m0.Mallocs) / wireBatches)
			allocs = append(allocs, perBatch/float64(len(msgs)))
			bytes = 0
			for _, f := range frames {
				bytes += len(f)
			}
		}
		out["wire."+sh.name+".encode_ns"] = median(enc)
		out["wire."+sh.name+".decode_ns"] = median(dec)
		// Background runtime work can only add allocations to a pass, so the
		// least of them is the codec's own count.
		out["wire."+sh.name+".allocs_per_msg"] = minimum(allocs)
		out["wire."+sh.name+".bytes_per_msg"] = float64(bytes) / float64(wireBatches*wireBatchMsgs)
	}
	return out, nil
}
