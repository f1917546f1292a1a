// Command rescue-campaign runs a parallel campaign: it expands a
// declarative job matrix — circuits × environments × technologies ×
// scenarios — onto the worker-pool engine, streams every job result as a
// JSONL line, and writes the deterministic campaign summary JSON.
//
// The matrix comes either from flags or from a JSON spec file:
//
//	rescue-campaign -circuits all -envs sea-level,LEO -scenarios holistic \
//	    -patterns 64 -out campaign.json -jsonl results.jsonl
//	rescue-campaign -spec matrix.json -parallel 8 -timing timing.json
//
// The summary (and the per-job JSONL payloads) contain no wall-clock
// data, so re-running the same matrix at any parallelism level yields
// byte-identical output; -timing captures the wall-clock side separately
// as one bench-schema JSON object whose numbers sit under
// .metrics.<name> (e.g. .metrics.jobs_per_sec, .metrics.wall_ms).
//
// -dir RUN_DIR makes the run durable: every completed job is fsync'd to
// RUN_DIR/checkpoint.jsonl, and re-running the same command after an
// interruption resumes exactly where the log left off — the final
// RUN_DIR/campaign.json is byte-identical to an uninterrupted run.
//
// -multi BASE_DIR with -serve ADDR starts the long-lived multi-run
// server instead: campaigns are submitted over POST /runs, queue behind
// a bounded admission queue (-queue-cap, 429 + Retry-After when full),
// and execute -max-runs at a time sharing the process-wide caches. Each
// run is durable under BASE_DIR/run-NNNNNN; restarting the server on
// the same BASE_DIR resumes every unfinished run. The matrix flags are
// ignored in this mode — matrices arrive over the API, and a live
// campaign is watched on /runs/{id}/status, /jobs and /result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rescue/internal/campaign"
	"rescue/internal/circuits"
	"rescue/internal/obs/bench"
	"rescue/internal/profiling"
)

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rescue-campaign: ")
	spec := flag.String("spec", "", "matrix spec JSON file (overrides the matrix flags)")
	circuitsFlag := flag.String("circuits", "all", `comma-separated circuit names, or "all" for the full registry`)
	envs := flag.String("envs", "sea-level", "comma-separated environments ("+strings.Join(campaign.EnvironmentNames(), ",")+")")
	techs := flag.String("techs", "28nm", "comma-separated technology nodes ("+strings.Join(campaign.TechnologyNames(), ",")+")")
	scenarios := flag.String("scenarios", "holistic", "comma-separated scenarios (quality,reliability,safety,security,holistic)")
	patterns := flag.Int("patterns", 64, "fault-injection patterns per job")
	years := flag.Float64("years", 10, "aging horizon in years")
	seed := flag.Int64("seed", 1, "campaign base seed")
	shards := flag.Int("shards", 1, "fault-list shards for large circuits")
	shardThreshold := flag.Int("shard-threshold", campaign.DefaultShardThreshold, "fault count above which sharding applies")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker count (workers with no queued job left are lent to the running jobs' PODEM searches)")
	stageCache := flag.String("stage-cache", "on", `cross-job stage-result memoization: "on" shares equal-input stage results across jobs, "off" recomputes everything (results are byte-identical either way)`)
	jsonl := flag.String("jsonl", "-", `per-job JSONL stream path ("-" = stdout, "" = off)`)
	out := flag.String("out", "", "campaign summary JSON path (default: render a text summary)")
	dir := flag.String("dir", "", "run directory for the crash-safe checkpoint log (re-run to resume; writes campaign.json there on completion)")
	serve := flag.String("serve", "", "multi-run mode: serve the campaign HTTP API on this address, e.g. :8080 (requires -multi)")
	multi := flag.String("multi", "", "multi-run server mode: base directory for durable run directories (requires -serve; matrices arrive over POST /runs)")
	queueCap := flag.Int("queue-cap", 16, "multi-run mode: bounded admission queue size (overflow answers 429)")
	maxRuns := flag.Int("max-runs", 2, "multi-run mode: campaigns executing concurrently")
	timing := flag.String("timing", "", "machine-readable wall-clock benchmark JSON path")
	quiet := flag.Bool("quiet", false, "suppress per-job progress on stderr")
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()
	// log.Fatal exits without running defers; fatal flushes the profiles
	// first so a failed run still leaves usable pprof output.
	fatal := func(v ...any) {
		stopProf()
		log.Fatal(v...)
	}

	if *stageCache != "on" && *stageCache != "off" {
		fatal(fmt.Sprintf(`-stage-cache must be "on" or "off", got %q`, *stageCache))
	}

	if *serve != "" && *multi == "" {
		fatal("-serve requires -multi BASE_DIR (campaigns are served by the multi-run server: POST the matrix to /runs)")
	}
	if *multi != "" {
		if *serve == "" {
			fatal("-multi requires -serve ADDR (the multi-run server only exists over its HTTP API)")
		}
		srv, err := campaign.NewServer(campaign.ServerConfig{
			BaseDir:       *multi,
			QueueCapacity: *queueCap,
			MaxActiveRuns: *maxRuns,
			RunConfig: campaign.Config{
				Parallelism:       *parallel,
				DisableStageCache: *stageCache == "off",
			},
		})
		if err != nil {
			fatal(err)
		}
		if n := srv.Recovered(); n > 0 {
			log.Printf("recovered %d unfinished runs from %s", n, *multi)
		}
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fatal(err)
		}
		log.Printf("serving multi-run campaign API on http://%s (POST /runs, GET /runs, GET /runs/{id}/status|jobs|result, DELETE /runs/{id}, /metrics)", ln.Addr())
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		// Serve drains on the first signal: active runs checkpoint and
		// stop, queued runs stay durable, and the next start resumes both.
		if err := srv.Serve(ctx, ln); err != nil {
			fatal(err)
		}
		return
	}

	var m campaign.Matrix
	if *spec != "" {
		raw, err := os.ReadFile(*spec)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			fatal(fmt.Sprintf("parsing %s: %v", *spec, err))
		}
	} else {
		names := splitList(*circuitsFlag)
		if len(names) == 1 && names[0] == "all" {
			names = circuits.Names()
		}
		m = campaign.Matrix{
			Circuits:       names,
			Environments:   splitList(*envs),
			Technologies:   splitList(*techs),
			Patterns:       *patterns,
			Years:          *years,
			Seed:           *seed,
			Shards:         *shards,
			ShardThreshold: *shardThreshold,
		}
		for _, s := range splitList(*scenarios) {
			m.Scenarios = append(m.Scenarios, campaign.Scenario(s))
		}
	}
	jobs, err := m.Expand()
	if err != nil {
		fatal(err)
	}

	// SIGTERM (docker stop, systemd) drains as gracefully as Ctrl-C; the
	// profiling package additionally flushes any active profiles on
	// either signal before this handler proceeds.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The checkpoint (and its exclusive flock) comes before any other
	// file is touched: a concurrent invocation on the same run directory
	// must fail here, not after truncating the winner's -jsonl stream.
	resuming := false
	var ck *campaign.Checkpoint
	if *dir != "" {
		_, statErr := os.Stat(filepath.Join(*dir, campaign.CheckpointFile))
		resuming = statErr == nil
		ck, err = campaign.OpenCheckpoint(*dir, m)
		if err != nil {
			fatal(err)
		}
		defer ck.Close()
		if n := len(ck.Completed()); n > 0 && !*quiet {
			log.Printf("resuming from %s: %d/%d jobs already completed", *dir, n, len(jobs))
		}
	}

	var stream *json.Encoder
	if *jsonl == "-" {
		stream = json.NewEncoder(os.Stdout)
	} else if *jsonl != "" {
		// A resumed run appends: truncating would destroy the per-job
		// records the interrupted run already streamed. Replayed jobs are
		// not re-streamed, so across a crash the stream is at-most-once —
		// a job whose crash fell between the checkpoint fsync and the
		// stream write is missing here; checkpoint.jsonl and campaign.json
		// are the canonical complete record.
		mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if resuming {
			mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		}
		f, err := os.OpenFile(*jsonl, mode, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		stream = json.NewEncoder(f)
	}

	done := 0
	replayed := 0
	if ck != nil {
		replayed = len(ck.Completed())
		done = replayed
	}
	cfg := campaign.Config{
		Parallelism:       *parallel,
		DisableStageCache: *stageCache == "off",
		OnResult: func(r campaign.Result) {
			if stream != nil {
				if err := stream.Encode(r); err != nil {
					fatal(err)
				}
			}
			done++
			if !*quiet {
				status := "ok"
				if r.Canceled {
					status = "canceled"
				} else if r.Err != "" {
					status = "FAILED: " + r.Err
				}
				fmt.Fprintf(os.Stderr, "[%d/%d] %-40s %8s  %s\n",
					done, len(jobs), r.Job.Name(), r.Elapsed.Round(time.Millisecond), status)
			}
		},
	}
	start := time.Now()
	var sum *campaign.Summary
	if ck != nil {
		sum, err = ck.Run(ctx, cfg)
	} else {
		sum, err = campaign.Run(ctx, m, cfg)
	}
	wall := time.Since(start)
	if err != nil {
		if sum != nil {
			fmt.Fprintf(os.Stderr, "%s", sum.Render())
		}
		if *dir != "" && errors.Is(err, context.Canceled) {
			log.Printf("interrupted; re-run with -dir %s to resume", *dir)
		}
		fatal(err)
	}

	if *timing != "" {
		// Throughput counts only the jobs this process executed — the
		// wall clock does not cover checkpoint-replayed jobs, so a
		// resumed run must not claim their work as its own.
		executed := sum.Jobs - replayed
		res := bench.New("campaign", 1)
		res.Metrics["jobs"] = float64(sum.Jobs)
		res.Metrics["jobs_replayed"] = float64(replayed)
		res.Metrics["jobs_executed"] = float64(executed)
		res.Metrics["workers"] = float64(sum.Workers)
		res.Metrics["wall_ms"] = float64(wall.Milliseconds())
		res.Metrics["jobs_per_sec"] = float64(executed) / wall.Seconds()
		if werr := res.Write(*timing); werr != nil {
			fatal(werr)
		}
	}
	// The text summary must never interleave with a JSONL stream on
	// stdout — consumers pipe it straight into jq and the like.
	summaryTo := os.Stdout
	if stream != nil && *jsonl == "-" {
		summaryTo = os.Stderr
	}
	if *out != "" {
		js, jerr := sum.JSON()
		if jerr != nil {
			fatal(jerr)
		}
		if werr := os.WriteFile(*out, append(js, '\n'), 0o644); werr != nil {
			fatal(werr)
		}
		summaryTo = os.Stderr
	}
	fmt.Fprintf(summaryTo, "%s", sum.Render())
	if sum.Failed > 0 {
		stopProf() // os.Exit skips defers; flush the profiles first
		os.Exit(1)
	}
}
