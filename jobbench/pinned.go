package main

// pinnedDigests holds the SHA-256 of each full-size job's matrix CSV
// at DefaultSeed, keyed "<engine>/<suite or corpus>". A reference
// sweep that disagrees fails every job of the run: the simulator's
// output changed, whatever it gained in speed. The same bytes come out
// of `gpusweep -noise 0.02 -seed 42 -o m.csv` (plus `-engine detailed
// -suite microbench` for the second entry).
var pinnedDigests = map[string]string{
	"round/corpus":        "e6fe5b5ddabf7ce8d5fa27086e4ed057ae56ab513e30191c36764e1eb717e172",
	"detailed/microbench": "56a4cc34f7f8826f2b6942f275215a27300b5b517d096d6288aa203fb063000f",
}
