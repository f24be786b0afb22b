"""End-to-end benchmark of the UV-diagram system (see README.md beside this file)."""
