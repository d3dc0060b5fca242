// Static workload scenario (Section 5.3 of the paper): when future queries
// come from the same templates as the training workload, compare all the
// methods — the analytical cost baseline, plan-level, and operator-level —
// on a held-out test split.
package main

import (
	"fmt"
	"log"

	"qpp"
)

func main() {
	templates := []int{1, 3, 5, 6, 10, 12, 14}

	train, err := qperf.BuildWorkload(qperf.WorkloadConfig{
		ScaleFactor: 0.008,
		Templates:   templates,
		PerTemplate: 12,
		Seed:        7,
	})
	if err != nil {
		log.Fatal(err)
	}
	test, err := qperf.BuildWorkload(qperf.WorkloadConfig{
		ScaleFactor: 0.008,
		Templates:   templates,
		PerTemplate: 4,
		Seed:        1234,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("train=%d queries, test=%d queries, templates=%v\n\n",
		train.Len(), test.Len(), templates)

	type method struct {
		name  string
		train func(*qperf.Workload) (qperf.Predictor, error)
	}
	methods := []method{
		{"optimizer-cost baseline", qperf.TrainCostBaseline},
		{"plan-level (SVR)", qperf.TrainPlanLevel},
		{"operator-level (linreg)", qperf.TrainOperatorLevel},
		{"hybrid (error-based)", func(w *qperf.Workload) (qperf.Predictor, error) {
			return qperf.TrainHybrid(w, qperf.ErrorBased)
		}},
	}
	fmt.Println("  method                      test MRE")
	for _, m := range methods {
		p, err := m.train(train)
		if err != nil {
			log.Fatal(err)
		}
		mre, skipped, err := qperf.MeanRelativeError(p, test)
		if err != nil {
			log.Fatal(err)
		}
		note := ""
		if skipped > 0 {
			note = fmt.Sprintf("  (%d queries not applicable)", skipped)
		}
		fmt.Printf("  %-26s %7.1f%%%s\n", m.name, 100*mre, note)
	}
	fmt.Println("\nExpected shape (paper): learned models beat the cost baseline by a wide")
	fmt.Println("margin, and plan-level is the strongest on a fixed, known workload.")

	// The same plan-level method predicts other performance metrics
	// (Section 7 of the paper), each scored against its own observed value.
	fmt.Println("\n  plan-level metric           test MRE")
	for _, metric := range []qperf.Metric{qperf.MetricPagesRead, qperf.MetricRowsOut} {
		p, err := qperf.TrainMetricPredictor(train, metric)
		if err != nil {
			log.Fatal(err)
		}
		mre, _, err := qperf.MeanRelativeError(p, test)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-26s %7.1f%%\n", metric, 100*mre)
	}
}
