package platform

// The calibration tests in package platform_test share these helpers;
// they live outside package platform so they can read lattester's catalog.
var (
	NewPlatform = newPlatform
	Run1        = run1
	AvgLatency  = avgLatency
)
