// Command steamgen generates a calibrated synthetic Steam universe and
// writes its snapshot to disk (.jsonl, .jsonl.gz or a .d shard directory).
//
//	steamgen -users 100000 -seed 1 -out steam.jsonl.gz
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"steamstudy"
	"steamstudy/internal/climain"
	"steamstudy/internal/dataset"
	"steamstudy/internal/simworld"
)

func main() {
	app := climain.New("steamgen")
	workers := app.WorkersFlag(0, "worker pool size for generation (0 = one per CPU, 1 = serial); output is identical for any value")
	var (
		users     = flag.Int("users", 100000, "population size (the paper measured 108.7M; statistics are scale-free)")
		seed      = flag.Int64("seed", 1, "deterministic generation seed")
		catalog   = flag.Int("catalog", 6156, "storefront catalog size (paper: 6,156)")
		out       = flag.String("out", "steam.jsonl.gz", "output path (.jsonl/.jsonl.gz, or a .d shard directory)")
		shardSize = flag.Int("shard-size", 0, "with a .d -out: records per shard segment (0 = the format default)")
		stream    = flag.Bool("stream", false, "generate out-of-core: stream the universe straight into the snapshot writer, skipping the snapshot record copy and analysis vectors (the paper-scale path; identical bytes)")
	)
	flag.Parse()
	app.MustSnapshotPath("out", *out)
	app.StartAdmin()

	var layout []dataset.Option
	if *shardSize > 0 {
		layout = append(layout, dataset.WithShardRecords(*shardSize))
	}

	if *stream {
		cfg := simworld.DefaultConfig(*users)
		cfg.CatalogSize = *catalog
		cfg.Workers = *workers
		uni, err := simworld.Generate(cfg, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "generated %d users, %d games, %d groups, %d friendships\n",
			len(uni.Users), len(uni.Games), len(uni.Groups), len(uni.Friendships))
		if err := dataset.WriteUniverse(*out, uni, layout...); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "snapshot streamed to %s\n", *out)
		return
	}

	study, err := steamstudy.New(steamstudy.Options{
		Users: *users, Seed: *seed, CatalogSize: *catalog,
		SkipSecondSnapshot: true, Workers: *workers,
	})
	if err != nil {
		log.Fatal(err)
	}
	h := study.Headline()
	fmt.Fprintf(os.Stderr,
		"generated %d users, %d games, %d groups, %d friendships, %d owned games, %.0f years of playtime, $%.0f market value\n",
		h.Users, h.Games, h.Groups, h.Friendships, h.OwnedGames, h.PlaytimeYears, h.MarketValueUSD)
	if err := study.SaveSnapshot(*out, layout...); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "snapshot written to %s\n", *out)
}
