"""Connection-tableau theorem proving with MCTS search and learned guidance."""
