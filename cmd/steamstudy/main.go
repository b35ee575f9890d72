// Command steamstudy regenerates the paper's evaluation: every table
// (1-4) and figure (1-12) plus the §4.1, §7, §8 and §9 analyses, either
// over a freshly generated calibrated universe or over a snapshot file
// produced by steamgen or steamcrawl.
//
//	steamstudy -users 200000 -seed 1              # full study, text output
//	steamstudy -experiment T3                     # one table
//	steamstudy -snapshot crawl.jsonl.gz -experiment all
//	steamstudy -list                              # experiment index
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"steamstudy"
	"steamstudy/internal/climain"
	"steamstudy/internal/dataset"
	"steamstudy/internal/obs"
)

func main() {
	app := climain.New("steamstudy")
	workers := app.WorkersFlag(0, "worker pool size for generation and analysis (0 = one per CPU, 1 = serial); output is identical for any value")
	var (
		users      = flag.Int("users", 200000, "population size when generating")
		seed       = flag.Int64("seed", 1, "generation seed")
		catalog    = flag.Int("catalog", 6156, "catalog size when generating")
		snapshot   = flag.String("snapshot", "", "analyze this snapshot file instead of generating")
		experiment = flag.String("experiment", "all", "experiment ID (see -list) or 'all'")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		noSecond   = flag.Bool("no-second-snapshot", false, "skip the §8 second snapshot")
		csvDir     = flag.String("csv", "", "also export every data series as CSV into this directory")
		seeds      = flag.Int("seeds", 0, "instead of one study, sweep this many seeds and report the stability of the headline statistics")
		timings    = flag.Bool("timings", false, "print per-experiment render timings to stderr after the run")
		fsck       = flag.Bool("fsck", false, "validate the -snapshot file (manifest checksums + referential integrity) and exit; non-zero exit if damaged")
		stream     = flag.Bool("stream", false, "with -snapshot: run the streaming Table 4 off the section readers without loading the snapshot (the paper-scale out-of-core path) and exit")
	)
	flag.Parse()
	if *snapshot != "" {
		app.MustSnapshotPath("snapshot", *snapshot)
	}

	if *fsck {
		if *snapshot == "" {
			log.Fatal("-fsck requires -snapshot to name the file to validate")
		}
		im := &dataset.IntegrityMetrics{}
		rep, err := dataset.FsckFile(*snapshot, im)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(rep.String())
		if !rep.Clean() {
			os.Exit(1)
		}
		return
	}

	if *stream {
		if *snapshot == "" {
			log.Fatal("-stream requires -snapshot to name the file to analyze")
		}
		start := time.Now()
		if err := steamstudy.StreamTable4(os.Stdout, *snapshot, "", nil, *workers); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "steamstudy: streaming Table 4 over %s in %v\n",
			*snapshot, time.Since(start).Round(time.Millisecond))
		return
	}

	if *timings {
		app.EnsureRegistry()
	}
	app.StartAdmin()
	reg := app.Registry()

	if *list {
		for _, e := range steamstudy.Experiments() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	if *seeds > 0 {
		list := make([]int64, *seeds)
		for i := range list {
			list[i] = *seed + int64(i)
		}
		sweep, err := steamstudy.RobustnessSweep(steamstudy.Options{
			Users: *users, CatalogSize: *catalog,
		}, list)
		if err != nil {
			log.Fatal(err)
		}
		if err := steamstudy.RenderSweep(os.Stdout, list, sweep); err != nil {
			log.Fatal(err)
		}
		return
	}

	var (
		study *steamstudy.Study
		err   error
	)
	start := time.Now()
	if *snapshot != "" {
		study, err = steamstudy.LoadSnapshot(*snapshot)
		if err != nil {
			log.Fatal(err)
		}
		study.SetWorkers(*workers)
		fmt.Fprintf(os.Stderr, "steamstudy: snapshot %s loaded in %v\n", *snapshot, time.Since(start).Round(time.Millisecond))
	} else {
		study, err = steamstudy.New(steamstudy.Options{
			Users: *users, Seed: *seed, CatalogSize: *catalog,
			SkipSecondSnapshot: *noSecond, Workers: *workers,
		})
		if err != nil {
			log.Fatal(err)
		}
		h := study.Headline()
		fmt.Fprintf(os.Stderr,
			"steamstudy: universe generated in %v: %d users, %d games, %d groups, %d friendships, %.0f years of playtime, $%.0f market value\n",
			time.Since(start).Round(time.Millisecond),
			h.Users, h.Games, h.Groups, h.Friendships, h.PlaytimeYears, h.MarketValueUSD)
	}

	if *csvDir != "" {
		if err := study.ExportCSV(*csvDir); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "steamstudy: CSV series written to %s\n", *csvDir)
	}

	study.SetObserver(reg)
	if *experiment == "all" {
		if err := study.RunAll(os.Stdout); err != nil {
			log.Fatal(err)
		}
	} else if err := study.Run(os.Stdout, *experiment); err != nil {
		log.Fatal(err)
	}
	if *timings {
		printTimings(reg)
	}
}

// printTimings dumps the per-experiment render spans the observer
// collected, slowest first.
func printTimings(reg *obs.Registry) {
	spans := reg.Snapshot().Spans
	ids := make([]string, 0, len(spans))
	for id := range spans {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		return spans[ids[a]].Seconds > spans[ids[b]].Seconds
	})
	fmt.Fprintln(os.Stderr, "steamstudy: render timings:")
	for _, id := range ids {
		fmt.Fprintf(os.Stderr, "  %-30s %8.1fms %s\n",
			id, spans[id].Seconds*1000, spans[id].State)
	}
}
