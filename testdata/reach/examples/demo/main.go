package main

import "reachdemo/internal/lib"

func main() {
	var k lib.Kept
	_ = k
	lib.UsedByExample()
}
