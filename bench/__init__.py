"""The repo's one benchmark — see bench/README.md."""
