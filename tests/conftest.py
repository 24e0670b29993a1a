import hypothesis

hypothesis.settings.register_profile(
    "ci", derandomize=True, max_examples=40, deadline=None
)
hypothesis.settings.load_profile("ci")
