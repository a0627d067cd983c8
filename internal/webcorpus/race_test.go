//go:build race

package webcorpus

func init() { raceEnabled = true }
