"""Benchmark of dispatchsim: workloads, output checks and tracing."""
