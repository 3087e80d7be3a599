// Livemonitor: the Grafana-role telemetry endpoint. Runs the testbed while
// serving the live series over HTTP (JSON), then dumps the Fig. 5-style
// ground-vs-reported series as CSV for plotting.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"decentmeter"
	"decentmeter/internal/telemetry"
)

func main() {
	sys := decentmeter.NewSystem(decentmeter.DefaultParams())
	if _, err := sys.AddNetwork("agg1", 1); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.AddDevice("device1", "agg1", decentmeter.DefaultESP32Load()); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.AddDevice("device2", "agg1", decentmeter.ConstantLoad(60)); err != nil {
		log.Fatal(err)
	}

	// Serve the registry (the "Grafana data source") on an ephemeral port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: telemetry.NewMux(sys.Registry, nil, nil)}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Printf("telemetry endpoints live at http://%s/metrics, /series, /series/query?name=...\n", ln.Addr())

	sys.Run(20 * time.Second)

	// Pull our own endpoint, like a dashboard would.
	resp, err := http.Get(fmt.Sprintf("http://%s/series", ln.Addr()))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	fmt.Printf("available series: %s\n", buf[:n])

	// Export the verification series as CSV.
	ground := sys.Registry.Series("agg1.window.ground_ma", 1)
	reported := sys.Registry.Series("agg1.window.reported_ma", 1)
	fmt.Println("\nground vs reported (CSV):")
	if err := telemetry.WriteCSV(os.Stdout, ground, reported); err != nil {
		log.Fatal(err)
	}
}
