//go:build !linux

package main

// cpuNs has no portable source off Linux; cpu_ns_per_key reads 0 there.
func cpuNs() int64 { return 0 }

func fsType(string) string { return "unknown" }
