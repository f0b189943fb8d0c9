// Command tool is the fixture's main package: what it calls is live.
package main

import (
	"fmt"

	"fixture/deadexp/lib"
)

func main() { fmt.Println(lib.UsedByMain(), lib.Sum(lib.ID(1), lib.ID(2))) }
