package live_test

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
)

// BenchmarkLoopbackEchoFloor is the wire plane's physical floor: a bare
// loopback TCP echo of grant-sized frames (32 bytes, the length of the
// golden grant-round frame) to 1 and 2 peers, one reader goroutine per
// connection on each side, as serve and its joins have. One op (ns/op) is
// one round: a frame written to every peer and every echo read back. Set
// against wire.rtt_us_p50 (grant sent → that PID's yield back) it says how
// much of a wire round the frame codec, the seq/ack peer and the join's
// step add to the sockets alone.
func BenchmarkLoopbackEchoFloor(b *testing.B) {
	for _, peers := range []int{1, 2} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			var wg sync.WaitGroup
			echoed := make(chan struct{}, peers)
			conns := make([]net.Conn, peers)
			for i := range conns {
				// The join side: echo every frame back.
				wg.Add(1)
				go func() {
					defer wg.Done()
					c, err := net.Dial("tcp", ln.Addr().String())
					if err != nil {
						return
					}
					defer c.Close()
					frame := make([]byte, 32)
					for {
						if _, err := io.ReadFull(c, frame); err != nil {
							return
						}
						if _, err := c.Write(frame); err != nil {
							return
						}
					}
				}()
				if conns[i], err = ln.Accept(); err != nil {
					b.Fatal(err)
				}
				// The serve side's reader for this connection.
				wg.Add(1)
				go func(c net.Conn) {
					defer wg.Done()
					frame := make([]byte, 32)
					for {
						if _, err := io.ReadFull(c, frame); err != nil {
							return
						}
						echoed <- struct{}{}
					}
				}(conns[i])
			}
			frame := make([]byte, 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range conns {
					if _, err := c.Write(frame); err != nil {
						b.Fatal(err)
					}
				}
				for range conns {
					<-echoed
				}
			}
			b.StopTimer()
			for _, c := range conns {
				c.Close()
			}
			wg.Wait()
		})
	}
}
