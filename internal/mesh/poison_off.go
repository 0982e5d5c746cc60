//go:build !meshpoison

package mesh

// poison is off in normal builds: Release and Acquire compile without the
// use-after-release checks.
const poison = false
