package main

import l "reachdemo/internal/lib"

func run(s interface{ Selected() }) { s.Selected() }

func main() {
	l.UsedByBench()
}
