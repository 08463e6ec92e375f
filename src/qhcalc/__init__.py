"""Exact quantum cohomology rings and action/index calculus."""
