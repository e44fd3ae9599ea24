// Command intellog is the IntelLog CLI: train a model from normal-run log
// directories, detect anomalies in new logs, render the HW-graph, and
// query Intel Messages.
//
// Usage:
//
//	intellog train  -framework spark -logs ./train-logs -model model.json
//	intellog detect -framework spark -logs ./new-logs   -model model.json
//	intellog analyze -framework spark -logs ./new-logs  -model model.json
//	intellog graph  -model model.json
//	intellog query  -framework spark -logs ./new-logs -model model.json -entity fetcher -groupby FETCHER
//
// Log directories hold one file per YARN container session (as written by
// loggen or collected from a cluster); the file name (minus .log) is the
// session ID.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"intellog/internal/core"
	"intellog/internal/detect"
	"intellog/internal/intelstore"
	"intellog/internal/logging"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "train":
		err = cmdTrain(args)
	case "detect":
		err = cmdDetect(args)
	case "analyze":
		err = cmdAnalyze(args)
	case "stream":
		err = cmdStream(args)
	case "bench-serve":
		err = cmdBenchServe(args)
	case "graph":
		err = cmdGraph(args)
	case "keys":
		err = cmdKeys(args)
	case "query":
		err = cmdQuery(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "intellog:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: intellog <train|detect|analyze|stream|bench-serve|graph|query> [flags]
  train  -framework F -logs DIR -model FILE [-threshold 1.7]
  detect -framework F -logs DIR -model FILE
  analyze -framework F -logs DIR -model FILE [-threshold T] [-window D] [-budget B] [-top N] [-json]
  stream -framework F -model FILE [-input FILE] [-idle D] [-max-sessions N] [-max-msgs N]
         [-checkpoint FILE [-checkpoint-every N]] [-fault-seed S -fault-truncate P
          -fault-corrupt P -fault-dup P -fault-reorder K] [-summary-only]
  bench-serve -server URL -tenant T -framework F (-logs DIR | -aggregated FILE)
         [-batch N] [-concurrency N] [-wait D] [-no-flush] [-bench-json FILE] [-check-metrics]
  graph  -model FILE
  keys   -model FILE [-entity E]
  query  -framework F -logs DIR -model FILE [-entity E] [-groupby TYPE] [-locality CLASS] [-json]`)
	os.Exit(2)
}

// loadInput loads sessions either from a per-session directory or from a
// single aggregated log file (sessionized by container ID).
func loadInput(fw logging.Framework, dir, aggregated string) ([]*logging.Session, error) {
	if aggregated != "" {
		// Map rather than read: batch inputs parse straight out of the
		// page cache, and the records' message strings are views into
		// the (process-lifetime) mapping.
		data, err := logging.MapFile(aggregated)
		if err != nil {
			return nil, err
		}
		recs := logging.ParseLinesBytes(logging.FormatterFor(fw), data)
		sessions := logging.SplitBySession(recs, nil)
		if len(sessions) == 0 {
			return nil, fmt.Errorf("no sessions found in aggregated log %s", aggregated)
		}
		return sessions, nil
	}
	return loadSessions(fw, dir)
}

// loadSessions reads every *.log file in dir as one session.
func loadSessions(fw logging.Framework, dir string) ([]*logging.Session, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	formatter := logging.FormatterFor(fw)
	var sessions []*logging.Session
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".log") || e.Name() == "yarn-daemon.log" {
			continue
		}
		data, err := logging.MapFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		id := strings.TrimSuffix(e.Name(), ".log")
		recs := logging.ParseLinesBytes(formatter, data)
		s := &logging.Session{ID: id, Framework: fw}
		for i := range recs {
			recs[i].SessionID = id
			s.Records = append(s.Records, recs[i])
		}
		if s.Len() > 0 {
			sessions = append(sessions, s)
		}
	}
	if len(sessions) == 0 {
		return nil, fmt.Errorf("no sessions found in %s", dir)
	}
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID < sessions[j].ID })
	return sessions, nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	framework := fs.String("framework", "spark", "spark | mapreduce | tez | tensorflow | flink | hdfs | yarn-rm")
	logs := fs.String("logs", "", "directory of session logs from normal runs")
	aggregated := fs.String("aggregated", "", "single aggregated log file (sessionized by container ID)")
	model := fs.String("model", "model.json", "output model file")
	threshold := fs.Float64("threshold", 1.7, "Spell matching threshold t")
	fs.Parse(args)

	fw, err := logging.ParseFramework(*framework)
	if err != nil {
		return err
	}
	sessions, err := loadInput(fw, *logs, *aggregated)
	if err != nil {
		return err
	}
	m := core.Train(sessions, core.Config{SpellThreshold: *threshold})
	f, err := os.Create(*model)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	fmt.Printf("trained on %d sessions: %d Intel Keys, %d entity groups (%d critical) -> %s\n",
		len(sessions), len(m.Keys), len(m.Graph.Nodes), len(m.Graph.CriticalGroups()), *model)
	return nil
}

func loadModel(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	framework := fs.String("framework", "spark", "spark | mapreduce | tez | tensorflow | flink | hdfs | yarn-rm")
	logs := fs.String("logs", "", "directory of session logs to check")
	aggregated := fs.String("aggregated", "", "single aggregated log file (sessionized by container ID)")
	model := fs.String("model", "model.json", "trained model file")
	fs.Parse(args)

	fw, err := logging.ParseFramework(*framework)
	if err != nil {
		return err
	}
	m, err := loadModel(*model)
	if err != nil {
		return err
	}
	sessions, err := loadInput(fw, *logs, *aggregated)
	if err != nil {
		return err
	}
	report := m.Detect(sessions)
	fmt.Print(report.Summary())
	for _, a := range report.Anomalies {
		switch a.Kind {
		case detect.UnexpectedMessage:
			fmt.Printf("  [%s] %s (group %q): %s\n", a.Session, a.Kind, a.Group, a.Record.Message)
		default:
			fmt.Printf("  [%s] %s: %s\n", a.Session, a.Kind, a.Detail)
		}
	}
	return nil
}

func cmdGraph(args []string) error {
	fs := flag.NewFlagSet("graph", flag.ExitOnError)
	model := fs.String("model", "model.json", "trained model file")
	fs.Parse(args)

	m, err := loadModel(*model)
	if err != nil {
		return err
	}
	fmt.Print(m.Graph.Render())
	fmt.Println("\nsubroutines (critical groups):")
	for _, name := range m.Graph.CriticalGroups() {
		node := m.Graph.Nodes[name]
		for sig, sub := range node.Subroutines {
			if sig == "" {
				sig = "NONE"
			}
			fmt.Printf("  %s / %s: %d keys (%d critical)\n", name, sig, len(sub.Keys), sub.CriticalLen())
		}
	}
	return nil
}

// cmdKeys prints every Intel Key with its extracted semantics — the
// inspection view of the §3 pipeline's output.
func cmdKeys(args []string) error {
	fs := flag.NewFlagSet("keys", flag.ExitOnError)
	model := fs.String("model", "model.json", "trained model file")
	entity := fs.String("entity", "", "only keys that extracted this entity")
	fs.Parse(args)

	m, err := loadModel(*model)
	if err != nil {
		return err
	}
	ids := make([]int, 0, len(m.Keys))
	for id := range m.Keys {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ik := m.Keys[id]
		if *entity != "" && !ik.HasEntity(*entity) {
			continue
		}
		fmt.Printf("key %3d: %s\n", id, ik.String())
		if len(ik.Entities) > 0 {
			fmt.Printf("         entities: %s\n", strings.Join(ik.Entities, ", "))
		}
		if types := ik.IdentifierTypes(); len(types) > 0 {
			fmt.Printf("         identifiers: %s\n", strings.Join(types, ", "))
		}
		if len(ik.Operations) > 0 {
			var ops []string
			for _, op := range ik.Operations {
				ops = append(ops, op.String())
			}
			fmt.Printf("         operations: %s\n", strings.Join(ops, " "))
		}
		if !ik.NaturalLanguage {
			fmt.Printf("         (non-NL: on the ignore list)\n")
		}
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	framework := fs.String("framework", "spark", "spark | mapreduce | tez | tensorflow | flink | hdfs | yarn-rm")
	logs := fs.String("logs", "", "directory of session logs")
	model := fs.String("model", "model.json", "trained model file")
	entity := fs.String("entity", "", "filter: messages whose key extracted this entity")
	groupBy := fs.String("groupby", "", "group results by this identifier type (e.g. FETCHER)")
	locality := fs.String("locality", "", "group results by this locality class (e.g. ADDR)")
	asJSON := fs.Bool("json", false, "dump matching Intel Messages as JSON")
	fs.Parse(args)

	fw, err := logging.ParseFramework(*framework)
	if err != nil {
		return err
	}
	m, err := loadModel(*model)
	if err != nil {
		return err
	}
	sessions, err := loadSessions(fw, *logs)
	if err != nil {
		return err
	}
	store := intelstore.New(m.Messages(sessions))
	if *entity != "" {
		store = store.WithEntity(*entity)
	}
	if *asJSON {
		return store.ExportJSON(os.Stdout)
	}
	switch {
	case *groupBy != "":
		printGroups(store.GroupByIdentifier(*groupBy))
	case *locality != "":
		printGroups(store.GroupByLocality(*locality))
	default:
		fmt.Printf("%d Intel Messages in %d sessions\n", store.Len(), len(store.Sessions()))
	}
	return nil
}

func printGroups(groups map[string]*intelstore.Store) {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-40s %6d messages\n", k, groups[k].Len())
	}
}
