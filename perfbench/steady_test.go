package main

import "testing"

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, c := range []struct {
		in   []float64
		want stats
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, stats{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, stats{1, 2, 3}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}
