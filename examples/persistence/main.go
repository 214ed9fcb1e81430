// Persistence: every DataDir database writes ahead to a log, so tables
// and partial index definitions survive a restart via
// Checkpoint/OpenExisting (or a crash, via log replay), while the Index
// Buffer — volatile by design, "without need for recovery" (paper §III)
// — starts empty and simply rebuilds itself from the first few misses.
// The output shows the cost profile before shutdown, right after
// reopening, and after the buffer has warmed back up.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"repro"
)

func main() {
	dir, err := os.MkdirTemp("", "aib-persist-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Session 1: create, load, index, warm the buffer, checkpoint.
	db, err := repro.Open(repro.Options{DataDir: dir, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	t, err := db.CreateTable("events", repro.Int64Column("k"), repro.StringColumn("payload"))
	if err != nil {
		log.Fatal(err)
	}
	pad := strings.Repeat("p", 300)
	for i := 0; i < 20000; i++ {
		if _, err := t.Insert(int64(1+(i*7919)%5000), pad); err != nil {
			log.Fatal(err)
		}
	}
	if err := t.CreatePartialRangeIndex("k", 1, 500); err != nil {
		log.Fatal(err)
	}
	show := func(label string, t *repro.Table, key int64) {
		_, stats, err := t.Query("k", key)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %5d pages read, %5d skipped\n", label, stats.PagesRead, stats.PagesSkipped)
	}
	fmt.Println("session 1:")
	show("  miss (builds the buffer)", t, 3000)
	show("  repeat miss (skips)", t, 3001)
	if err := db.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpointed to %s and closed\n\n", dir)

	// Session 2: reopen. Data and index are back; the buffer is empty.
	db2, err := repro.OpenExisting(repro.Options{DataDir: dir, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	t2 := db2.Table("events")
	n, err := t2.Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 2: reopened with %d rows, %d pages\n", n, t2.NumPages())
	for _, b := range db2.BufferStats() {
		fmt.Printf("  index buffer %s after restart: %d entries (volatile, as the paper intends)\n",
			b.Name, b.Entries)
	}
	show("  covered query (index persisted)", t2, 200)
	show("  first miss (cold buffer)", t2, 3000)
	show("  repeat miss (warm again)", t2, 3001)
}
