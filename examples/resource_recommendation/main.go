// Resource recommendation: the inverse of the paper's main problem. With
// a trained resource-aware cost model, finding the best allocation for a
// plan is one batched inference over an allocation grid — compare with
// the sampling-based resource matchers the paper cites (Sec. II, [31,32]).
// The plan is encoded and run through the plan-side layers once; only the
// resource attention and the dense head run per allocation.
//
//	go run ./examples/resource_recommendation
package main

import (
	"fmt"
	"log"

	"raal"
)

func main() {
	sys, err := raal.Open(raal.IMDB, 0.1, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("collecting training data and fitting RAAL ...")
	ds, err := sys.Collect(raal.CollectOptions{NumQueries: 150, ResStatesPerPlan: 3})
	if err != nil {
		log.Fatal(err)
	}
	cm, report, err := raal.TrainCostModel(ds, raal.RAAL(), raal.TrainOptions{Epochs: 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("held-out metrics: %s\n\n", report.Held)

	query := `SELECT COUNT(*) FROM title t, movie_keyword mk
	          WHERE t.id = mk.movie_id AND mk.keyword_id < 1500`
	plan, err := sys.DefaultPlan(query)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Execute(plan); err != nil {
		log.Fatal(err)
	}

	grid := raal.DefaultResourceGrid()
	best, pred := cm.RecommendResources(plan, grid)
	truth, err := sys.Cost(plan, best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recommended allocation: %s\n", best)
	fmt.Printf("predicted %.1fs, simulated-true %.1fs\n\n", pred, truth)

	// How good is the recommendation really? Compare against the true
	// grid optimum and the default allocation.
	bestTrue, bestSec := grid[0], 0.0
	for i, res := range grid {
		sec, err := sys.Cost(plan, res)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 || sec < bestSec {
			bestTrue, bestSec = res, sec
		}
	}
	defSec, err := sys.Cost(plan, raal.DefaultResources())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("true grid optimum:      %s → %.1fs\n", bestTrue, bestSec)
	fmt.Printf("default allocation:     %s → %.1fs\n", raal.DefaultResources(), defSec)
	fmt.Printf("recommendation regret:  %.1f%% above the optimum\n", 100*(truth-bestSec)/bestSec)
}
