//go:build !linux

package nand

import "os"

// mapImage maps images on Linux only; elsewhere LoadImage reads them.
func mapImage(*os.File) []byte { return nil }

func unmapImage([]byte) {}
