"""The slidingbloom benchmark: workloads, timing spans and the run entry point."""
