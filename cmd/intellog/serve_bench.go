package main

import (
	"flag"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"intellog/internal/benchjson"
	"intellog/internal/logging"
	"intellog/internal/server"
)

// cmdBenchServe replays a log corpus against a running intellogd over
// HTTP and reports throughput and latency percentiles — the serving
// analogue of the offline bench harness, and the load generator of the
// CI serve-smoke job.
func cmdBenchServe(args []string) error {
	fs := flag.NewFlagSet("bench-serve", flag.ExitOnError)
	var (
		serverURL   = fs.String("server", "http://127.0.0.1:7171", "intellogd base URL")
		proto       = fs.String("proto", "ndjson", "ingest protocol: ndjson (HTTP) | stream (binary)")
		streamAddr  = fs.String("stream-addr", "127.0.0.1:7172", "binary protocol address (with -proto=stream)")
		window      = fs.Int("window", 4, "pipelined frames per connection (with -proto=stream)")
		tenant      = fs.String("tenant", "default", "tenant to ingest as")
		framework   = fs.String("framework", "spark", "spark | mapreduce | tez | tensorflow | flink | hdfs | yarn-rm")
		logs        = fs.String("logs", "", "directory of per-session .log files to replay")
		aggregated  = fs.String("aggregated", "", "single aggregated log file to replay (alternative to -logs)")
		batch       = fs.Int("batch", 256, "records per ingest request")
		concurrency = fs.Int("concurrency", 4, "parallel sender workers (sessions sharded across them)")
		wait        = fs.Duration("wait", 0, "wait up to this long for the server to become ready")
		noFlush     = fs.Bool("no-flush", false, "skip the final flush (leave sessions in flight)")
		benchJSON   = fs.String("bench-json", "", "merge results into this benchjson archive")
		checkMetric = fs.Bool("check-metrics", false, "scrape /metrics afterwards and fail if serving series are missing")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*logs == "") == (*aggregated == "") {
		return fmt.Errorf("bench-serve: exactly one of -logs or -aggregated is required")
	}

	fw, err := logging.ParseFramework(*framework)
	if err != nil {
		return err
	}
	sessions, err := loadInput(fw, *logs, *aggregated)
	if err != nil {
		return err
	}
	// Interleave sessions by timestamp — the shape of a live aggregated
	// stream, and what the ingest path is built for.
	var recs []logging.Record
	for _, s := range sessions {
		recs = append(recs, s.Records...)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })

	c := &server.Client{Base: strings.TrimRight(*serverURL, "/"), Tenant: *tenant}
	if *wait > 0 {
		if err := c.WaitReady(*wait); err != nil {
			return err
		}
	}

	// Snapshot the daemon's allocation counter before the replay so the
	// delta afterwards is (approximately) this replay's allocations. On a
	// bench box the daemon serves only this client, so the attribution is
	// clean; against a shared daemon the number includes whatever else it
	// was doing.
	preMallocs, preOK := scrapeMetric(c, "intellogd_mallocs_total")

	var res server.ReplayResult
	switch *proto {
	case "ndjson":
		res, err = c.Replay(recs, server.ReplayOptions{Batch: *batch, Concurrency: *concurrency})
	case "stream":
		res, err = c.ReplayStream(*streamAddr, recs, server.StreamReplayOptions{
			Batch: *batch, Concurrency: *concurrency, Window: *window})
	default:
		return fmt.Errorf("bench-serve: unknown -proto %q (want ndjson or stream)", *proto)
	}
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	fmt.Printf("bench-serve: tenant=%s proto=%s records=%d batches=%d rejected=%d\n",
		*tenant, *proto, res.Records, res.Batches, res.Rejected)
	fmt.Printf("bench-serve: wall=%s throughput=%.0f rec/s p50=%s p99=%s\n",
		res.Duration.Round(time.Millisecond), res.RecPerSec, res.P50.Round(time.Microsecond), res.P99.Round(time.Microsecond))

	// GC-pressure readout: allocations per ingested record (from the
	// daemon's malloc counter delta) and the runtime's cumulative GC CPU
	// fraction. Best-effort — an older daemon without the series just
	// skips these numbers.
	allocsPerRecord, gcFraction := -1.0, -1.0
	if postMallocs, ok := scrapeMetric(c, "intellogd_mallocs_total"); ok && preOK && res.Records > 0 {
		allocsPerRecord = (postMallocs - preMallocs) / float64(res.Records)
	}
	if f, ok := scrapeMetric(c, "intellogd_gc_cpu_fraction"); ok {
		gcFraction = f
	}
	if allocsPerRecord >= 0 || gcFraction >= 0 {
		fmt.Printf("bench-serve: allocs/record=%.1f gc_cpu_fraction=%.4f\n",
			allocsPerRecord, gcFraction)
	}

	if !*noFlush {
		fl, err := c.Flush()
		if err != nil {
			return fmt.Errorf("flush: %w", err)
		}
		rep, err := c.Report()
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		fmt.Printf("bench-serve: sessions=%d anomalies=%d (flush emitted %d)\n",
			rep.Sessions, len(rep.Anomalies), fl.Findings)
	}

	if *checkMetric {
		text, err := c.Metrics()
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		for _, series := range []string{
			"intellogd_ingest_records_total",
			"intellogd_pending_sessions",
			"intellogd_anomaly_log_size",
			"intellogd_resident_tenants",
		} {
			if !strings.Contains(text, series) {
				return fmt.Errorf("metrics: scrape is missing series %s", series)
			}
		}
		fmt.Println("bench-serve: metrics scrape ok")
	}

	if *benchJSON != "" {
		key := "serve_replay_" + *framework
		if *proto == "stream" {
			key = "serve_replay_stream_" + *framework
		}
		metrics := map[string]float64{
			"records":       float64(res.Records),
			"batches":       float64(res.Batches),
			"rejected":      float64(res.Rejected),
			"wall_seconds":  res.Duration.Seconds(),
			"records_per_s": res.RecPerSec,
			"p50_ms":        float64(res.P50) / float64(time.Millisecond),
			"p99_ms":        float64(res.P99) / float64(time.Millisecond),
			"concurrency":   float64(*concurrency),
			"batch_records": float64(*batch),
		}
		if allocsPerRecord >= 0 {
			metrics["allocs_per_record"] = allocsPerRecord
		}
		if gcFraction >= 0 {
			metrics["gc_cpu_fraction"] = gcFraction
		}
		if err := benchjson.Merge(*benchJSON, key, metrics); err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
		fmt.Printf("bench-serve: archived to %s\n", *benchJSON)
	}
	return nil
}

// scrapeMetric fetches the daemon's /metrics exposition and returns the
// value of the unlabeled series name. Best-effort: any scrape or parse
// failure reports ok=false and the caller skips the derived number.
func scrapeMetric(c *server.Client, name string) (float64, bool) {
	text, err := c.Metrics()
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || len(rest) == 0 || (rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}
