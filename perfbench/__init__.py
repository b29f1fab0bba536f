"""Sweep benchmark for the SmarTmem simulator; see README.md."""
