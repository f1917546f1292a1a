// Command rescue-loadtest hammers a multi-run campaign server with many
// small campaigns to measure the contention points the multi-tenant
// story depends on: admission latency under concurrent POSTs,
// backpressure behavior (429 + Retry-After honored as a client would),
// end-to-end run throughput, and the cross-run stage-cache hit rate
// that overlapping matrices are supposed to earn.
//
//	rescue-campaign -multi /var/lib/rescue/runs -serve :8080 &
//	rescue-loadtest -addr http://localhost:8080 -runs 32 -clients 8
//
// -self-serve starts an in-process server on an ephemeral port and a
// temporary base directory first — the one-command smoke mode CI uses:
//
//	rescue-loadtest -self-serve -runs 12 -clients 4
//
// By default every campaign submits the same matrix, so the stage cache
// should dedup almost everything after the first run; -unique-seeds
// gives each run its own base seed to measure the no-overlap floor.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rescue/internal/campaign"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rescue-loadtest: ")
	addr := flag.String("addr", "", "base URL of a running multi-run server, e.g. http://localhost:8080")
	selfServe := flag.Bool("self-serve", false, "start an in-process server on an ephemeral port (ignores -addr)")
	runs := flag.Int("runs", 16, "total campaigns to submit")
	clients := flag.Int("clients", 4, "concurrent submitting clients")
	queueCap := flag.Int("queue-cap", 4, "self-serve: admission queue size (small by default so the test exercises 429s)")
	maxRuns := flag.Int("max-runs", 2, "self-serve: campaigns executing concurrently")
	circuit := flag.String("circuit", "c17", "circuit each campaign simulates")
	patterns := flag.Int("patterns", 16, "fault-injection patterns per job")
	uniqueSeeds := flag.Bool("unique-seeds", false, "give every run a distinct base seed (defeats cross-run stage dedup; measures the no-overlap floor)")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall deadline")
	flag.Parse()
	if *runs < 1 || *clients < 1 {
		log.Fatalf("-runs and -clients must be at least 1, got %d and %d", *runs, *clients)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// cleanup stops the -self-serve server and removes its base
	// directory. fatalf runs it first, because log.Fatalf skips deferred
	// calls.
	cleanup := func() {}
	defer func() { cleanup() }()
	fatalf := func(format string, v ...any) {
		cleanup()
		log.Fatalf(format, v...)
	}
	base := *addr
	if *selfServe {
		dir, err := os.MkdirTemp("", "rescue-loadtest-*")
		if err != nil {
			log.Fatal(err)
		}
		cleanup = func() { os.RemoveAll(dir) }
		srv, err := campaign.NewServer(campaign.ServerConfig{
			BaseDir:       dir,
			QueueCapacity: *queueCap,
			MaxActiveRuns: *maxRuns,
		})
		if err != nil {
			fatalf("%v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatalf("%v", err)
		}
		serveCtx, stopServe := context.WithCancel(context.Background())
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.Serve(serveCtx, ln) }()
		// A failing client may call fatalf while another does.
		cleanup = sync.OnceFunc(func() {
			stopServe()
			if err := <-serveDone; err != nil {
				log.Printf("server shutdown: %v", err)
			}
			os.RemoveAll(dir)
		})
		base = "http://" + ln.Addr().String()
		log.Printf("self-serve server on %s (queue %d, %d concurrent runs)", base, *queueCap, *maxRuns)
	}
	if base == "" {
		log.Fatal("need -addr URL or -self-serve")
	}
	base = strings.TrimRight(base, "/")

	before, err := scrapeMetrics(ctx, base)
	if err != nil {
		fatalf("scraping /metrics: %v (is the server up?)", err)
	}

	// Fan the submissions out: each client POSTs its share, honoring 429
	// Retry-After exactly as a well-behaved tenant would, and records the
	// accepted-submission latency (the enqueue cost) plus rejection counts.
	type submission struct {
		id      int
		latency time.Duration
	}
	var (
		mu        sync.Mutex
		accepted  []submission
		rejected  int
		transport = &http.Client{Timeout: 30 * time.Second}
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < *runs; i += *clients {
				m := campaign.Matrix{
					Circuits:  []string{*circuit},
					Scenarios: []campaign.Scenario{campaign.ScenarioQuality},
					Patterns:  *patterns,
					Seed:      1,
				}
				if *uniqueSeeds {
					m.Seed = int64(i + 1)
				}
				js, err := json.Marshal(m)
				if err != nil {
					fatalf("%v", err)
				}
				for {
					t0 := time.Now()
					resp, err := transport.Post(base+"/runs", "application/json", bytes.NewReader(js))
					if err != nil {
						fatalf("client %d: %v", c, err)
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusTooManyRequests {
						mu.Lock()
						rejected++
						mu.Unlock()
						wait := time.Second
						if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
							wait = time.Duration(ra) * time.Second
						}
						select {
						case <-time.After(wait):
							continue
						case <-ctx.Done():
							fatalf("deadline while backing off (run %d)", i)
						}
					}
					if resp.StatusCode != http.StatusAccepted {
						fatalf("POST /runs: status %d (%s)", resp.StatusCode, body)
					}
					var info campaign.RunInfo
					if err := json.Unmarshal(body, &info); err != nil {
						fatalf("decoding admission response: %v", err)
					}
					mu.Lock()
					accepted = append(accepted, submission{id: info.ID, latency: time.Since(t0)})
					mu.Unlock()
					break
				}
			}
		}(c)
	}
	wg.Wait()

	// Poll every accepted run to a terminal state.
	failed := 0
	for _, sub := range accepted {
		info, err := waitTerminal(ctx, transport, base, sub.id)
		if err != nil {
			fatalf("%v", err)
		}
		if info.State != campaign.RunDone {
			failed++
			log.Printf("run %d ended %s: %s", info.ID, info.State, info.Error)
		}
	}
	wall := time.Since(start)

	after, err := scrapeMetrics(ctx, base)
	if err != nil {
		fatalf("scraping /metrics: %v", err)
	}

	lat := make([]time.Duration, 0, len(accepted))
	for _, s := range accepted {
		lat = append(lat, s.latency)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) time.Duration {
		if len(lat) == 0 {
			return 0
		}
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	delta := func(name string) float64 { return after[name] - before[name] }

	hits := delta("campaign_stage_cache_hits_total")
	misses := delta("campaign_stage_cache_misses_total")
	waits := delta("campaign_stage_cache_waits_total")
	hitRate := 0.0
	if total := hits + misses + waits; total > 0 {
		hitRate = 100 * (hits + waits) / total
	}

	fmt.Printf("runs submitted      %d (%d clients)\n", len(accepted), *clients)
	fmt.Printf("429 rejections      %d (all retried after Retry-After)\n", rejected)
	fmt.Printf("enqueue latency     p50 %s  p90 %s  max %s\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
	fmt.Printf("wall clock          %s (%.1f runs/sec end-to-end)\n",
		wall.Round(time.Millisecond), float64(len(accepted))/wall.Seconds())
	fmt.Printf("admissions          %+.0f admitted, %+.0f rejected (server counters)\n",
		delta("campaign_server_runs_admitted_total"), delta("campaign_server_runs_rejected_total"))
	fmt.Printf("stage cache         %.0f hits, %.0f misses, %.0f waits (%.1f%% cross-run dedup)\n",
		hits, misses, waits, hitRate)
	if failed > 0 {
		fatalf("%d runs did not complete", failed)
	}
}

// waitTerminal polls /runs/{id} until the run leaves the queue/running
// states.
func waitTerminal(ctx context.Context, c *http.Client, base string, id int) (campaign.RunInfo, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/runs/%d", base, id), nil)
		if err != nil {
			return campaign.RunInfo{}, err
		}
		resp, err := c.Do(req)
		if err != nil {
			return campaign.RunInfo{}, err
		}
		var info campaign.RunInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			return campaign.RunInfo{}, err
		}
		switch info.State {
		case campaign.RunDone, campaign.RunFailed, campaign.RunCanceled:
			return info, nil
		}
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
			return campaign.RunInfo{}, fmt.Errorf("deadline waiting for run %d (last state %s)", id, info.State)
		}
	}
}

// scrapeMetrics reads the Prometheus text exposition into a name→value
// map (labels are not used by any series this tool reads).
func scrapeMetrics(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[name] = f
	}
	return out, nil
}
