"""The repository benchmark: three workloads driven through the public
``repro`` API, end-to-end metrics with tracing off and a traced run that
splits host time by layer. ``python3 perfbench/run.py --help`` runs it;
README.md in this directory documents every metric."""
