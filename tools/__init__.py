"""Developer tools that run beside the ``repro`` library, never inside it."""
