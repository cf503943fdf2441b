// Networkmon: network flow monitoring over real TCP receptors and
// emitters — the deployment shape of the paper's Figure 1, with sensors
// and actuators as separate processes.
//
// A simulated probe process connects over TCP and streams flow records
// (src, dst, port, bytes) — by default as columnar batch frames over the
// engine's binary wire protocol, with -text as the escape hatch back to
// the flat pipe-separated tuple format (the receptor sniffs the protocol
// per connection, so both probes work against the same socket). Two
// continuous queries watch the stream: one flags elephant flows, one
// aggregates per-port traffic. An actuator process connects to the
// emitter side and receives the alerts. Run with:
//
//	go run ./examples/networkmon
//	go run ./examples/networkmon -text
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"strings"
	"time"

	"datacell"
	"datacell/internal/ingest"
	"datacell/internal/vector"
)

func main() {
	text := flag.Bool("text", false, "probe speaks the flat textual tuple protocol instead of binary frames")
	flag.Parse()
	eng := datacell.New()
	if _, err := eng.Exec(`create basket flows (src string, dst string, port int, bytes int)`); err != nil {
		log.Fatal(err)
	}

	if err := eng.RegisterQuery("elephants",
		`select f.src, f.dst, f.bytes from [select * from flows] f where f.bytes > 1000000`); err != nil {
		log.Fatal(err)
	}
	if err := eng.RegisterQuery("portload", `
		select f.port, sum(f.bytes) as total, count(*) as flows
		from [select top 50 from flows] f
		group by f.port
		having total > 5000000`); err != nil {
		log.Fatal(err)
	}

	// Show the compiled shape of a query before running it.
	plan, err := eng.Explain(`select f.src, f.dst, f.bytes from [select * from flows] f where f.bytes > 1000000`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("plan:\n" + plan)

	in, err := eng.ListenIngest("flows", "127.0.0.1:0", datacell.IngestOptions{})
	if err != nil {
		log.Fatal(err)
	}
	inAddr := in.Addr()
	outAddr, err := eng.ServeTCP("elephants", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.SubscribeQuery("portload", datacell.SubscribeOptions{OnEmit: func(em datacell.Emit) {
		for _, row := range em.Table.Rows {
			fmt.Printf("hot port %v: %v bytes over %v flows\n", row[0], row[1], row[2])
		}
	}}); err != nil {
		log.Fatal(err)
	}

	// Actuator process: consumes elephant-flow alerts over TCP.
	gotAlert := make(chan string, 16)
	actuator, err := net.Dial("tcp", outAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer actuator.Close()
	go func() {
		sc := bufio.NewScanner(actuator)
		for sc.Scan() {
			gotAlert <- sc.Text()
		}
	}()

	if err := eng.Start(); err != nil {
		log.Fatal(err)
	}
	defer eng.Stop()

	// Probe process: streams flow records over TCP — binary frames by
	// default, textual lines with -text.
	probe, err := net.Dial("tcp", inAddr)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		defer probe.Close()
		rng := rand.New(rand.NewSource(1))
		flow := func(i int) (src, dst string, port, size int) {
			size = rng.Intn(200_000)
			if i%97 == 0 {
				size = 1_500_000 + rng.Intn(500_000) // an elephant
			}
			return fmt.Sprintf("10.0.0.%d", rng.Intn(255)), fmt.Sprintf("10.1.0.%d", rng.Intn(255)),
				[]int{80, 443, 53}[rng.Intn(3)], size
		}
		if *text {
			w := bufio.NewWriter(probe)
			for i := 0; i < 500; i++ {
				src, dst, port, size := flow(i)
				fmt.Fprintf(w, "%s|%s|%d|%d\n", src, dst, port, size)
			}
			w.Flush()
			return
		}
		bw := ingest.NewBatchWriter(probe,
			[]string{"src", "dst", "port", "bytes"},
			[]vector.Type{vector.Str, vector.Str, vector.Int, vector.Int}, 64)
		for i := 0; i < 500; i++ {
			src, dst, port, size := flow(i)
			if err := bw.WriteRow(vector.NewStr(src), vector.NewStr(dst),
				vector.NewInt(int64(port)), vector.NewInt(int64(size))); err != nil {
				log.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			log.Fatal(err)
		}
	}()

	select {
	case alert := <-gotAlert:
		parts := strings.Split(alert, "|")
		fmt.Printf("elephant flow alert: %s -> %s (%s bytes)\n", parts[0], parts[1], parts[2])
	case <-time.After(5 * time.Second):
		log.Fatal("no elephant alert within 5s")
	}
}
